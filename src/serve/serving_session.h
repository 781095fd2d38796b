// The serving loop, written once: a ServingSession drives one
// ServingStore (either backend) with one ViolationEngine and, optionally,
// a ViolationChangefeed. `gfdtool serve run` (POST /ingest), `detect
// --log --delta` and `serve append` all serve batches through it.
//
// Prime() settles the running violation count: the persisted count when
// it is current under the rule fingerprint, else one full scan of the
// live view that seeds it and is the planner's first full-path sample.
// Serve() then runs one batch, in order:
//   1. append + diff  ServingStore::AppendAndDiff, path per DetectPlanner
//   2. count          += |added| - |removed|, or RE-SEEDED from the full
//                     run after a full-path batch; persisted
//   3. publish        the diff rendered against the live post-batch view
//   4. compact        ServingStore::MaybeCompact
//
// Not thread-safe: FeedService serializes it through its store mutex.
#ifndef GFD_SERVE_SERVING_SESSION_H_
#define GFD_SERVE_SERVING_SESSION_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "detect/engine.h"
#include "detect/planner.h"
#include "serve/changefeed.h"
#include "serve/serving_store.h"

namespace gfd {

enum class ServeStatus {
  kServed,
  kInvalidBatch,  ///< failed validation; nothing was logged
  kFeedBehind,    ///< the feed missed a batch; refused, nothing logged
};

struct ServedBatch {
  ServeStatus status = ServeStatus::kServed;
  std::string error;  ///< why the batch was refused
  uint64_t seq = 0;
  IncrementalDiff diff;
  uint64_t count = 0;  ///< running violation count after the batch
  DeltaVerdict verdict = DeltaVerdict::kClean;
  double diff_seconds = 0;  ///< wall-clock of step 1
  size_t overlay_ops = 0;   ///< pending overlay ops before step 4
  /// Failures after the batch was committed; it is durable regardless.
  std::string count_error, publish_error, compact_error;
};

class ServingSession {
 public:
  /// Does not take ownership; all arguments must outlive the session.
  ServingSession(ServingStore& store, const ViolationEngine& engine,
                 ViolationChangefeed* feed = nullptr, size_t workers = 1);

  /// Settles and returns the running count. `*scanned`: a full scan
  /// seeded it; `*error`: persisting the seeded count failed.
  uint64_t Prime(bool* scanned = nullptr, std::string* error = nullptr);

  /// Adopts and persists `count`, the size of a complete uncapped Detect
  /// over the current graph, as the running count.
  bool Seed(uint64_t count, std::string* error = nullptr);

  /// Serves one TSV delta batch. Precondition: primed.
  ServedBatch Serve(std::string_view delta_tsv);

  ServingStore& store() const { return store_; }
  ViolationChangefeed* feed() const { return feed_; }
  bool primed() const { return primed_; }
  uint64_t violation_count() const { return count_; }
  const PlannerStats& planner_stats() const { return planner_.stats(); }
  /// Footprint-gate totals over the batches served so far.
  uint64_t groups_scanned() const { return groups_scanned_; }
  uint64_t groups_skipped() const { return groups_skipped_; }

 private:
  ServingStore& store_;
  const ViolationEngine& engine_;
  ViolationChangefeed* feed_;
  size_t workers_;
  uint64_t fingerprint_;  ///< keys the persisted count to the rule set
  uint64_t count_ = 0;
  bool primed_ = false;
  DetectPlanner planner_;
  uint64_t groups_scanned_ = 0;
  uint64_t groups_skipped_ = 0;
};

}  // namespace gfd

#endif  // GFD_SERVE_SERVING_SESSION_H_
