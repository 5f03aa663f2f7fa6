#include "server/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "common/string_util.h"

namespace rodin::server {

namespace {

Status SysError(const std::string& what) {
  return Status::Error(Status::Code::kInternal,
                       StrFormat("%s: %s", what.c_str(), strerror(errno)));
}

Status ProtocolViolation(const std::string& what) {
  return Status::Error(Status::Code::kInternal,
                       StrFormat("protocol violation: %s", what.c_str()));
}

}  // namespace

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      connection_id_(other.connection_id_),
      next_request_(other.next_request_),
      active_request_(other.active_request_.load()) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    connection_id_ = other.connection_id_;
    next_request_ = other.next_request_;
    active_request_.store(other.active_request_.load());
    other.fd_ = -1;
  }
  return *this;
}

Status Client::Connect(const std::string& host, uint16_t port) {
  Close();
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return SysError("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::Error(Status::Code::kInvalidArgument,
                         StrFormat("bad host: %s", host.c_str()));
  }
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = SysError("connect");
    Close();
    return s;
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  PayloadWriter hello;
  hello.U32(kProtocolVersion);
  const uint64_t request_id = next_request_++;
  Status s = SendFrame(FrameType::kHello, request_id, hello.Take());
  if (!s.ok()) {
    Close();
    return s;
  }
  FrameHeader header;
  std::string payload;
  s = ReadFrame(&header, &payload);
  if (!s.ok()) {
    Close();
    return s;
  }
  if (header.type == FrameType::kStatus) {
    PayloadReader r(payload.data(), payload.size());
    Status refusal;
    uint64_t rows;
    double cost;
    if (DecodeStatusPayload(&r, &refusal, &rows, &cost)) {
      Close();
      return refusal;
    }
  }
  if (header.type != FrameType::kHelloOk) {
    Close();
    return ProtocolViolation("expected HELLO_OK");
  }
  PayloadReader r(payload.data(), payload.size());
  uint32_t version;
  std::string banner;
  if (!r.U32(&version) || !r.Str(&banner) || !r.U64(&connection_id_) ||
      !r.AtEnd()) {
    Close();
    return ProtocolViolation("malformed HELLO_OK");
  }
  if (version != kProtocolVersion) {
    Close();
    return ProtocolViolation("server answered with another protocol version");
  }
  return Status::Ok();
}

Status Client::StatusRoundTrip(FrameType type, const std::string& payload,
                               uint64_t* rows, uint64_t* detail) {
  if (!connected()) {
    return Status::Error(Status::Code::kInvalidArgument, "not connected");
  }
  const uint64_t request_id = next_request_++;
  Status s = SendFrame(type, request_id, payload);
  if (!s.ok()) return s;
  FrameHeader header;
  std::string reply;
  s = ReadFrame(&header, &reply);
  if (!s.ok()) return s;
  if (header.type != FrameType::kStatus || header.request_id != request_id) {
    return ProtocolViolation("expected STATUS");
  }
  PayloadReader r(reply.data(), reply.size());
  Status outcome;
  uint64_t rows_produced;
  double cost;
  if (!DecodeStatusPayload(&r, &outcome, &rows_produced, &cost) ||
      !r.AtEnd()) {
    return ProtocolViolation("malformed STATUS");
  }
  if (rows != nullptr) *rows = rows_produced;
  if (detail != nullptr) *detail = outcome.detail;
  return outcome;
}

Status Client::Mutate(const MutationBatch& batch, uint64_t* ops_staged) {
  PayloadWriter w;
  EncodeMutationBatch(batch, &w);
  return StatusRoundTrip(FrameType::kMutate, w.Take(), ops_staged, nullptr);
}

Status Client::Commit(uint64_t* ops_applied, uint64_t* stats_version) {
  return StatusRoundTrip(FrameType::kCommit, std::string(), ops_applied,
                         stats_version);
}

ClientResult Client::Query(const std::string& text,
                           const QueryOptions& options,
                           uint64_t stop_after_rows, bool collect_rows) {
  ClientResult result;
  if (!connected()) {
    result.status =
        Status::Error(Status::Code::kInvalidArgument, "not connected");
    return result;
  }
  const uint64_t request_id = next_request_++;
  PayloadWriter w;
  w.Str(text);
  WireQueryOptions::FromQueryOptions(options).Encode(&w);
  active_request_.store(request_id);
  result.status = SendFrame(FrameType::kQuery, request_id, w.Take());
  if (!result.status.ok()) return result;
  return ReadQueryReply(request_id, stop_after_rows, collect_rows);
}

Status Client::Prepare(const std::string& text, uint64_t* statement_id) {
  if (!connected()) {
    return Status::Error(Status::Code::kInvalidArgument, "not connected");
  }
  const uint64_t request_id = next_request_++;
  PayloadWriter w;
  w.Str(text);
  Status s = SendFrame(FrameType::kPrepare, request_id, w.Take());
  if (!s.ok()) return s;

  FrameHeader header;
  std::string payload;
  s = ReadFrame(&header, &payload);
  if (!s.ok()) return s;
  PayloadReader r(payload.data(), payload.size());
  if (header.type == FrameType::kStatus) {
    Status refusal;
    uint64_t rows;
    double cost;
    if (!DecodeStatusPayload(&r, &refusal, &rows, &cost)) {
      return ProtocolViolation("malformed STATUS");
    }
    return refusal;
  }
  if (header.type != FrameType::kPrepareOk) {
    return ProtocolViolation("expected PREPARE_OK");
  }
  if (!r.U64(statement_id) || !r.AtEnd()) {
    return ProtocolViolation("malformed PREPARE_OK");
  }
  return Status::Ok();
}

ClientResult Client::Execute(uint64_t statement_id,
                             const QueryOptions& options,
                             uint64_t stop_after_rows, bool collect_rows) {
  ClientResult result;
  if (!connected()) {
    result.status =
        Status::Error(Status::Code::kInvalidArgument, "not connected");
    return result;
  }
  const uint64_t request_id = next_request_++;
  PayloadWriter w;
  w.U64(statement_id);
  WireQueryOptions::FromQueryOptions(options).Encode(&w);
  active_request_.store(request_id);
  result.status = SendFrame(FrameType::kExecute, request_id, w.Take());
  if (!result.status.ok()) return result;
  return ReadQueryReply(request_id, stop_after_rows, collect_rows);
}

ClientResult Client::ReadQueryReply(uint64_t request_id,
                                    uint64_t stop_after_rows,
                                    bool collect_rows) {
  ClientResult result;
  while (true) {
    FrameHeader header;
    std::string payload;
    result.status = ReadFrame(&header, &payload);
    if (!result.status.ok()) break;
    if (header.request_id != request_id) {
      result.status = ProtocolViolation("reply for a different request");
      break;
    }
    PayloadReader r(payload.data(), payload.size());
    if (header.type == FrameType::kSchema) {
      uint32_t ncols;
      bool ok = r.U32(&ncols);
      for (uint32_t i = 0; ok && i < ncols; ++i) {
        std::string name;
        ok = r.Str(&name);
        if (ok) result.columns.push_back(std::move(name));
      }
      if (!ok || !r.AtEnd()) {
        result.status = ProtocolViolation("malformed SCHEMA");
        break;
      }
      continue;
    }
    if (header.type == FrameType::kRows) {
      uint32_t nrows;
      if (!r.U32(&nrows)) {
        result.status = ProtocolViolation("malformed ROWS");
        break;
      }
      const size_t ncols = result.columns.size();
      bool ok = true;
      for (uint32_t i = 0; ok && i < nrows; ++i) {
        std::vector<Value> row(ncols);
        for (size_t c = 0; ok && c < ncols; ++c) {
          ok = DecodeValue(&r, &row[c]);
        }
        if (ok) {
          ++result.rows_streamed;
          if (collect_rows) result.rows.push_back(std::move(row));
        }
      }
      if (!ok || !r.AtEnd()) {
        result.status = ProtocolViolation("malformed ROWS");
        break;
      }
      if (stop_after_rows > 0 && result.rows_streamed >= stop_after_rows) {
        // The disconnect-mid-stream hook: vanish without a GOODBYE. The
        // server must observe the hangup and cancel the running query.
        Close();
        result.status = Status::Error(Status::Code::kCancelled,
                                      "client disconnected mid-stream");
        return result;
      }
      continue;
    }
    if (header.type == FrameType::kStatus) {
      if (!DecodeStatusPayload(&r, &result.status, &result.rows_produced,
                               &result.measured_cost) ||
          !r.AtEnd()) {
        result.status = ProtocolViolation("malformed STATUS");
      }
      break;
    }
    result.status = ProtocolViolation(
        StrFormat("unexpected frame type %u",
                  static_cast<unsigned>(header.type)));
    break;
  }
  active_request_.store(0);
  return result;
}

void Client::CancelActive() {
  const uint64_t target = active_request_.load();
  if (target == 0 || !connected()) return;
  PayloadWriter w;
  w.U64(target);
  // Header request id 0: CANCEL has no reply, so the id is never echoed
  // (and next_request_ belongs to the thread blocked in Query/Execute).
  SendFrame(FrameType::kCancel, 0, w.Take());
}

void Client::Goodbye() {
  if (!connected()) return;
  SendFrame(FrameType::kGoodbye, next_request_++, std::string());
  Close();
}

void Client::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  active_request_.store(0);
}

Status Client::SendFrame(FrameType type, uint64_t request_id,
                         const std::string& payload) {
  const std::string frame = EncodeFrame(type, request_id, payload);
  std::lock_guard<std::mutex> lock(write_mu_);
  if (fd_ < 0) {
    return Status::Error(Status::Code::kInvalidArgument, "not connected");
  }
  size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return SysError("send");
  }
  return Status::Ok();
}

Status Client::ReadFrame(FrameHeader* header, std::string* payload) {
  char head[kFrameHeaderBytes];
  size_t off = 0;
  while (off < sizeof(head)) {
    const ssize_t n = recv(fd_, head + off, sizeof(head) - off, 0);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) {
      return Status::Error(Status::Code::kInternal,
                           "server closed the connection");
    }
    return SysError("recv");
  }
  if (!DecodeFrameHeader(head, header)) {
    return ProtocolViolation("oversized frame");
  }
  payload->resize(header->payload_length);
  off = 0;
  while (off < payload->size()) {
    const ssize_t n =
        recv(fd_, payload->data() + off, payload->size() - off, 0);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) {
      return Status::Error(Status::Code::kInternal,
                           "server closed the connection mid-frame");
    }
    return SysError("recv");
  }
  return Status::Ok();
}

}  // namespace rodin::server
