#include "serve/serving_session.h"

#include <utility>

#include "gfd/serialize.h"
#include "util/hash.h"
#include "util/timer.h"

namespace gfd {

namespace {

// Rules serialize by name, so the fingerprint survives restarts and
// snapshot rolls; the live view names every id a rule can hold.
uint64_t RuleFingerprint(std::span<const Gfd> rules, const GraphView& view) {
  std::string text;
  for (const Gfd& rule : rules) text += SerializeGfd(rule, view) + '\n';
  return Fnv1a64(text);
}

}  // namespace

ServingSession::ServingSession(ServingStore& store,
                               const ViolationEngine& engine,
                               ViolationChangefeed* feed, size_t workers)
    : store_(store),
      engine_(engine),
      feed_(feed),
      workers_(workers),
      fingerprint_(RuleFingerprint(engine.rules(), store.view())) {}

uint64_t ServingSession::Prime(bool* scanned, std::string* error) {
  auto persisted = store_.violation_count(fingerprint_);
  if (scanned) *scanned = !persisted;
  primed_ = true;
  if (persisted) {
    count_ = *persisted;
    return count_;
  }
  const GraphView& view = store_.view();
  DetectOptions full;
  full.workers = workers_;
  WallTimer watch;
  const uint64_t count = engine_.Detect(view, full).violations.size();
  const double seconds = watch.Seconds();
  // A free full-path cost sample: the adaptive planner calibrates after
  // the FIRST served batch instead of needing one of each path.
  PlannerInputs in = MakePlannerInputs(view, 0, "", engine_.NumGroups(),
                                       engine_.NumAnchorPlans());
  planner_.ObserveFull(in, seconds);
  Seed(count, error);
  return count_;
}

bool ServingSession::Seed(uint64_t count, std::string* error) {
  count_ = count;
  return store_.SetViolationCount(count_, fingerprint_, error);
}

ServedBatch ServingSession::Serve(std::string_view delta_tsv) {
  ServedBatch out;
  // Publish takes only the next seq: a feed that missed one batch would
  // silently miss every later one, so refuse until a restart resets it.
  if (feed_ && feed_->last_seq() != store_.last_seq()) {
    out.status = ServeStatus::kFeedBehind;
    out.error = "changefeed at seq " + std::to_string(feed_->last_seq()) +
                " is out of step with the store at seq " +
                std::to_string(store_.last_seq()) + "; restart to reset it";
    return out;
  }

  IncrementalOptions iopts;
  iopts.workers = workers_;
  iopts.planner = &planner_;
  WallTimer watch;
  auto diff =
      store_.AppendAndDiff(engine_, delta_tsv, iopts, &out.seq, &out.error);
  if (!diff) {
    out.status = ServeStatus::kInvalidBatch;
    return out;
  }
  out.diff_seconds = watch.Seconds();
  out.diff = std::move(*diff);

  // A full-path count is authoritative: re-seeding (not composing) keeps
  // a drifted count from persisting through the store meta.
  count_ = out.diff.used_full_path
               ? out.diff.full_post_count
               : count_ + out.diff.added.size() - out.diff.removed.size();
  groups_scanned_ += out.diff.stats.groups_scanned;
  groups_skipped_ += out.diff.stats.groups_skipped;
  out.count = count_;
  out.verdict = ClassifyDelta(out.diff, count_);
  store_.SetViolationCount(count_, fingerprint_, &out.count_error);

  // Serialize-at-publish: descriptions resolve against the post-batch
  // state, so feed replay never needs historical graph state.
  if (feed_) {
    std::string payload = SerializeDiffPayload(store_.view(), engine_.rules(),
                                               out.diff);
    feed_->Publish(out.seq, std::move(payload), &out.publish_error);
  }
  out.overlay_ops = store_.MetricsSnapshot().overlay_ops;
  store_.MaybeCompact(&out.compact_error);
  return out;
}

}  // namespace gfd
