#include "obs/trace.h"

#include <algorithm>

#include "common/string_util.h"

namespace rodin::obs {

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", static_cast<unsigned char>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ArgsJson(const TraceEvent& e) {
  if (e.args.empty()) return "{}";
  std::string out = "{";
  for (size_t i = 0; i < e.args.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(e.args[i].first) + "\":\"" +
           JsonEscape(e.args[i].second) + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

bool Trace::HasSpan(const std::string& name) const {
  for (const TraceEvent& e : events_) {
    if (e.dur_us >= 0 && e.name == name) return true;
  }
  return false;
}

std::string Trace::ToChromeJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events_) {
    if (!first) out += ",";
    first = false;
    if (e.dur_us >= 0) {
      out += StrFormat(
          "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
          "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":%s}",
          JsonEscape(e.name).c_str(), JsonEscape(e.cat).c_str(), e.ts_us,
          e.dur_us, ArgsJson(e).c_str());
    } else {
      out += StrFormat(
          "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
          "\"ts\":%.3f,\"pid\":1,\"tid\":1,\"args\":%s}",
          JsonEscape(e.name).c_str(), JsonEscape(e.cat).c_str(), e.ts_us,
          ArgsJson(e).c_str());
    }
  }
  out += "]}";
  return out;
}

std::string Trace::ToTreeString() const {
  std::string out;
  for (const TraceEvent& e : events_) {
    out += std::string(static_cast<size_t>(e.depth) * 2, ' ');
    if (e.dur_us >= 0) {
      out += StrFormat("%s [%s] %.1f us", e.name.c_str(), e.cat.c_str(),
                       e.dur_us);
    } else {
      out += StrFormat("* %s [%s]", e.name.c_str(), e.cat.c_str());
    }
    for (const auto& [k, v] : e.args) {
      out += " " + k + "=" + v;
    }
    out += "\n";
  }
  if (dropped_ > 0) {
    out += StrFormat("(%zu events dropped at the tracer cap)\n", dropped_);
  }
  return out;
}

uint64_t Tracer::Begin(const std::string& name, const std::string& cat) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return kMaxEvents;  // sentinel: End/AddArg on it are ignored
  }
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_us = NowUs();
  e.dur_us = -1;
  e.depth = depth_++;
  events_.push_back(std::move(e));
  const uint64_t id = events_.size() - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= events_.size()) return;  // dropped span
  events_[id].dur_us = NowUs() - events_[id].ts_us;
  if (depth_ > 0) --depth_;
  open_.erase(std::remove(open_.begin(), open_.end(), id), open_.end());
}

void Tracer::AddArg(uint64_t id, const std::string& key, std::string value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= events_.size()) return;
  events_[id].args.emplace_back(key, std::move(value));
}

void Tracer::AddArg(uint64_t id, const std::string& key, double value) {
  AddArg(id, key, StrFormat("%.1f", value));
}

void Tracer::Instant(const std::string& name, const std::string& cat,
                     std::vector<std::pair<std::string, std::string>> args) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_us = NowUs();
  e.dur_us = -1;
  e.depth = depth_;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::shared_ptr<Trace> Tracer::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  const double now = NowUs();
  for (uint64_t id : open_) {
    events_[id].dur_us = now - events_[id].ts_us;
  }
  open_.clear();
  depth_ = 0;
  return std::make_shared<Trace>(std::move(events_), dropped_);
}

}  // namespace rodin::obs
