#ifndef RODIN_TXN_MATERIALIZED_FIX_H_
#define RODIN_TXN_MATERIALIZED_FIX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/value.h"
#include "txn/mutation.h"

namespace rodin {

class Database;

/// Declares a materialized transitive closure over an edge set stored in
/// one extent. Two forms:
///
///   * class form (`src_attr` empty): every live object o of `extent`
///     contributes edges o -> t for each ref t in o.`dst_attr` (single ref
///     or collection of refs). E.g. {extent: "Part", dst_attr: "subparts"}
///     materializes the paper's Contains closure; {extent: "Composer",
///     dst_attr: "master"} the Influencer lineage.
///   * relation form: every live tuple contributes one edge
///     tuple.`src_attr` -> tuple.`dst_attr` (both ref fields).
///
/// The closure is irreflexive: (x, x) appears only when x lies on a cycle.
struct MaterializedFixSpec {
  std::string name;
  std::string extent;
  std::string src_attr;  // empty => class form
  std::string dst_attr;
};

/// What one ApplyDelta/Recompute did to a view.
struct FixMaintenance {
  bool incremental = true;  // false: full recompute ran
  bool dred = false;        // deletions went through delete-and-rederive
  uint64_t pairs_added = 0;
  uint64_t pairs_removed = 0;
};

/// One materialized transitive closure with incremental maintenance.
///
/// While the edge graph stays acyclic the closure is kept *counting-style*:
/// each (s, t) pair carries the number of distinct s->t paths, so an edge
/// delete is O(|affected pairs|): subtract C(s,a)*C(b,t) for the removed
/// edge (a, b) and erase pairs whose count reaches zero — no rederivation
/// pass. Inserting an edge that closes a cycle (or saturating a count)
/// permanently degrades the view to membership mode, where inserts run a
/// semi-naive worklist and deletes fall back to DRed (delete-and-rederive:
/// over-delete everything possibly supported by the removed edges, then
/// rederive what the remaining graph still proves). Both modes produce the
/// identical pair set; Recompute() is the from-scratch oracle the
/// differential tests compare against.
///
/// Determinism: all internal containers are ordered, so Pairs() — sorted by
/// (src, dst) — is the view's row-order contract.
class MaterializedFix {
 public:
  explicit MaterializedFix(MaterializedFixSpec spec) : spec_(std::move(spec)) {}

  const MaterializedFixSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }

  /// Full rebuild from the database's live records (initial build and the
  /// differential oracle).
  FixMaintenance Recompute(const Database& db);

  /// Incremental maintenance for one committed batch: `removed` then
  /// `added` edge deltas (multiset semantics — a duplicated edge only
  /// affects the closure when its support count crosses zero).
  FixMaintenance ApplyDelta(const std::vector<std::pair<Oid, Oid>>& removed,
                            const std::vector<std::pair<Oid, Oid>>& added);

  /// The closure, sorted by (src, dst) — the row-order contract.
  std::vector<std::pair<Oid, Oid>> Pairs() const;
  uint64_t size() const { return num_pairs_; }
  bool Contains(Oid s, Oid t) const;
  /// True while path counts are exact (acyclic graph, no saturation).
  bool exact() const { return exact_; }

  /// Edges contributed by one record of the view's extent (used by the
  /// registry to turn mutation ops into edge deltas). `rec` must be the
  /// record's fields in storage order.
  void EdgesOfRecord(const Database& db, Oid oid,
                     const std::vector<Value>& rec,
                     std::vector<std::pair<Oid, Oid>>* out) const;
  /// True if an update assigning `attr` can change this view's edges.
  bool AttrRelevant(const std::string& attr) const {
    return attr == spec_.dst_attr ||
           (!spec_.src_attr.empty() && attr == spec_.src_attr);
  }

 private:
  void ExtractEdges(const Database& db,
                    std::vector<std::pair<Oid, Oid>>* edges) const;
  void RecomputeFromGraph();
  void AddPair(Oid s, Oid t, uint64_t c);
  void SubPair(Oid s, Oid t, uint64_t c);
  void InsertEdgeExact(Oid a, Oid b);
  void DeleteEdgeExact(Oid a, Oid b);
  void InsertEdgeSemiNaive(Oid a, Oid b);
  void DeleteEdgesDRed(const std::vector<std::pair<Oid, Oid>>& gone);

  MaterializedFixSpec spec_;
  /// Edge support counts (distinct records contributing the edge).
  std::map<Oid, std::map<Oid, uint32_t>> adj_, radj_;
  /// Closure path counts, forward and reverse (kept in sync). In membership
  /// mode every count is 1.
  std::map<Oid, std::map<Oid, uint64_t>> fwd_, rev_;
  uint64_t num_pairs_ = 0;
  bool exact_ = true;
};

/// How the registry maintains views at commit. kIncremental is the default;
/// tests and bench_mutate select kRecompute (TxnManager::SetFixPolicy) to
/// run the differential oracle.
enum class FixMaintenancePolicy { kIncremental, kRecompute };

/// The commit-time registry: TxnManager calls PrepareDeltas before
/// Database::Apply (old edge values) and Maintain after it (new edge
/// values + propagation). Thread-safety is the caller's problem — all
/// calls happen under the TxnManager commit gate or registration mutex.
class MaterializedFixRegistry {
 public:
  /// Validates the spec against the schema, builds the initial closure.
  /// kInvalidArgument on unknown extent/attr or duplicate name.
  Status Register(const MaterializedFixSpec& spec, const Database& db);
  Status Drop(const std::string& name);
  const MaterializedFix* Find(const std::string& name) const;
  std::vector<std::string> Names() const;
  size_t size() const { return views_.size(); }

  void set_policy(FixMaintenancePolicy p) { policy_ = p; }
  FixMaintenancePolicy policy() const { return policy_; }

  /// Per-view edge deltas of one batch.
  struct ViewDeltas {
    std::vector<std::pair<Oid, Oid>> removed, added;
  };

  /// Phase A, *before* Database::Apply: collect the edges that delete and
  /// update ops destroy, from the still-unmodified records.
  std::vector<ViewDeltas> PrepareDeltas(const Database& db,
                                        const MutationBatch& batch) const;

  /// Phase B, *after* Database::Apply: complete the deltas with the edges
  /// inserts and updates created (`new_oids` parallel to the batch's insert
  /// ops), cancel removed/added pairs that reappear unchanged, and bring
  /// every affected view up to date (incrementally or by recompute, per
  /// policy). Returns the number of views maintained; *used_incremental is
  /// cleared when any affected view took the recompute path.
  uint64_t Maintain(const Database& db, const MutationBatch& batch,
                    const std::vector<Oid>& new_oids,
                    std::vector<ViewDeltas> deltas, bool* used_incremental);

 private:
  std::vector<std::unique_ptr<MaterializedFix>> views_;
  FixMaintenancePolicy policy_ = FixMaintenancePolicy::kIncremental;
};

}  // namespace rodin

#endif  // RODIN_TXN_MATERIALIZED_FIX_H_
