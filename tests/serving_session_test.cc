// The serving loop (serve/serving_session.h) on both backends: fixed-seed
// batch streams through one ServingSession, checked batch by batch
// against full re-detection of the materialized graph -- the running
// count, the verdict, and the published feed payload (rendered from the
// live view, compared byte for byte with a rendering over the
// materialized post-batch graph). Each stream opens with a batch past
// the planner's seeded crossover, so the full path and the count re-seed
// run, and that batch also trips the compaction policy. Reopening the
// store then primes a new session from the persisted count, scan-free.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "datagen/gfd_gen.h"
#include "datagen/synthetic.h"
#include "detect/engine.h"
#include "graph/graph_view.h"
#include "graph/loader.h"
#include "serve/changefeed.h"
#include "serve/coordinator.h"
#include "serve/graph_store.h"
#include "serve/serving_session.h"
#include "util/rng.h"

namespace gfd {
namespace {

namespace fs = std::filesystem;

std::string Scratch(const std::string& name) {
  std::string dir = ::testing::TempDir() + "gfd_" + name;
  fs::remove_all(dir);
  return dir;
}

std::string DeltaBytes(const PropertyGraph& base, const GraphDelta& d) {
  std::ostringstream os;
  SaveGraphDeltaTsv(base, d, os);
  return std::move(os).str();
}

// Random update batch over the current state `g`: edge inserts and
// deletes plus attribute sets, some to values `g` does not intern yet
// (overlay vocabulary the live view must name).
GraphDelta RandomBatch(const PropertyGraph& g, Rng& rng, size_t ops) {
  GraphDelta d;
  std::vector<bool> gone(g.NumEdges(), false);
  for (size_t i = 0; i < ops; ++i) {
    double roll = rng.NextDouble();
    if (roll < 0.4) {
      EdgeId e = static_cast<EdgeId>(rng.Below(g.NumEdges()));
      d.InsertEdge(g.EdgeSrc(e), static_cast<NodeId>(rng.Below(g.NumNodes())),
                   g.EdgeLabel(e));
    } else if (roll < 0.7) {
      EdgeId e = static_cast<EdgeId>(rng.Below(g.NumEdges()));
      if (gone[e]) continue;  // at most one delete per base edge
      gone[e] = true;
      d.DeleteEdge(g.EdgeSrc(e), g.EdgeDst(e), g.EdgeLabel(e));
    } else {
      NodeId v = static_cast<NodeId>(rng.Below(g.NumNodes()));
      auto attrs = g.NodeAttrs(v);
      if (attrs.empty()) continue;
      ValueId val =
          rng.Chance(0.2)
              ? d.InternValue(g, "fresh_" + std::to_string(rng.Below(4)))
              : static_cast<ValueId>(rng.Below(g.values().size()));
      d.SetAttr(v, attrs[rng.Below(attrs.size())].key, val);
    }
  }
  return d;
}

// The feed payload as the pre-session server rendered it: against a copy
// of the post-batch graph.
std::string MaterializedPayload(const PropertyGraph& current,
                                std::span<const Gfd> rules,
                                const IncrementalDiff& diff) {
  return SerializeDiffPayload(*GraphView::Apply(current, GraphDelta{}), rules,
                              diff);
}

// Every payload line parses and names the diff record at its position.
void ExpectLinesMatchDiff(const std::string& payload,
                          const IncrementalDiff& diff, const std::string& at) {
  std::vector<FeedLine> added, removed;
  std::istringstream in(payload);
  std::string raw;
  while (std::getline(in, raw)) {
    auto line = ParseFeedLine(raw);
    ASSERT_TRUE(line.has_value()) << at << ": " << raw;
    (line->added ? added : removed).push_back(*line);
  }
  ASSERT_EQ(added.size(), diff.added.size()) << at;
  ASSERT_EQ(removed.size(), diff.removed.size()) << at;
  for (size_t i = 0; i < added.size(); ++i) {
    EXPECT_EQ(added[i].rule, diff.added[i].gfd_index) << at;
    EXPECT_EQ(added[i].pivot, diff.added[i].pivot) << at;
  }
  for (size_t i = 0; i < removed.size(); ++i) {
    EXPECT_EQ(removed[i].rule, diff.removed[i].gfd_index) << at;
    EXPECT_EQ(removed[i].pivot, diff.removed[i].pivot) << at;
  }
}

// Owns whichever backend one stream runs on; reopenable in place.
struct Backend {
  bool distributed = false;
  std::string dir;
  std::optional<GraphStore> single;
  std::optional<Coordinator> coord;

  bool Open() {
    single.reset();
    coord.reset();
    if (distributed) {
      coord = Coordinator::Open(dir);
      return coord.has_value();
    }
    single = GraphStore::Open(dir);
    return single.has_value();
  }
  ServingStore& store() {
    return distributed ? static_cast<ServingStore&>(*coord) : *single;
  }
};

struct StreamCase {
  bool distributed;
  int seed;
};

class SessionStream : public ::testing::TestWithParam<StreamCase> {};

TEST_P(SessionStream, MatchesFullRedetectionBatchByBatch) {
  const StreamCase c = GetParam();
  const std::string tag = (c.distributed ? "coord_" : "single_") +
                          std::to_string(c.seed);
  Rng rng(c.seed * 7919 + 5);
  auto g = MakeSynthetic({.nodes = 120,
                          .edges = 360,
                          .node_labels = 5,
                          .edge_labels = 4,
                          .attrs = 3,
                          .values = 12,
                          .value_correlation = 0.9,
                          .seed = static_cast<uint64_t>(c.seed) + 300});
  ViolationEngine engine(GenerateGfdSet(
      g, {.count = 10, .k = 3, .seed = static_cast<uint64_t>(c.seed) + 40}));

  Backend backend;
  backend.distributed = c.distributed;
  backend.dir = Scratch(tag);
  ASSERT_TRUE(c.distributed ? Coordinator::Init(backend.dir, g, 4)
                            : GraphStore::Init(backend.dir, g));
  ASSERT_TRUE(backend.Open());
  ServingStore& store = backend.store();
  auto feed = ViolationChangefeed::Open(backend.dir, store.last_seq());
  ASSERT_NE(feed, nullptr);

  ServingSession session(store, engine, feed.get(), /*workers=*/2);
  bool scanned = false;
  std::string error;
  EXPECT_EQ(session.Prime(&scanned, &error),
            engine.Detect(g).violations.size());
  EXPECT_TRUE(scanned);
  EXPECT_TRUE(error.empty()) << error;

  // Batch 0 is a quarter of the edge count: past the seeded crossover of
  // a planner that has only the priming scan's full-path sample, so it
  // deterministically takes the full path -- and trips the compaction
  // policy (its default fraction is that same crossover).
  const size_t sizes[] = {g.NumEdges() / 4, 10, 6, 12, 8};
  std::vector<std::string> want_payloads;
  for (size_t b = 0; b < std::size(sizes); ++b) {
    const std::string at = tag + " batch " + std::to_string(b);
    PropertyGraph before = store.MaterializeCurrent();
    const size_t compactions = store.MetricsSnapshot().compactions;
    ServedBatch served =
        session.Serve(DeltaBytes(before, RandomBatch(before, rng, sizes[b])));
    ASSERT_EQ(served.status, ServeStatus::kServed)
        << at << ": " << served.error;
    EXPECT_TRUE(served.count_error.empty()) << at;
    EXPECT_TRUE(served.publish_error.empty()) << at;
    EXPECT_TRUE(served.compact_error.empty()) << at;
    EXPECT_EQ(served.seq, b + 1) << at;
    if (b == 0) {
      EXPECT_TRUE(served.diff.used_full_path) << at;
      EXPECT_GT(store.MetricsSnapshot().compactions, compactions) << at;
    }

    PropertyGraph after = store.MaterializeCurrent();
    auto after_view = GraphView::Apply(after, GraphDelta{});
    EXPECT_EQ(served.count, engine.Detect(after).violations.size()) << at;
    EXPECT_EQ(session.violation_count(), served.count) << at;
    EXPECT_EQ(served.verdict, ClassifyDelta(engine, *after_view, served.diff))
        << at;
    want_payloads.push_back(
        MaterializedPayload(after, engine.rules(), served.diff));
    ExpectLinesMatchDiff(want_payloads.back(), served.diff, at);
  }

  // The feed carries exactly those payloads, under the store's seqs.
  std::vector<FeedEvent> replay;
  feed->Unsubscribe(feed->Subscribe(0, 1, &replay));
  ASSERT_EQ(replay.size(), want_payloads.size());
  for (size_t i = 0; i < replay.size(); ++i) {
    EXPECT_EQ(replay[i].seq, i + 1);
    EXPECT_EQ(replay[i].payload, want_payloads[i]) << tag << " seq " << i + 1;
  }

  // Restart: the persisted count primes a new session without a scan.
  const uint64_t final_count = session.violation_count();
  ASSERT_TRUE(backend.Open());
  ServingSession reopened(backend.store(), engine);
  EXPECT_EQ(reopened.Prime(&scanned), final_count) << tag;
  EXPECT_FALSE(scanned) << tag;
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SessionStream,
    ::testing::Values(StreamCase{false, 1}, StreamCase{false, 2},
                      StreamCase{true, 1}, StreamCase{true, 2}),
    [](const ::testing::TestParamInfo<StreamCase>& info) {
      return std::string(info.param.distributed ? "Coordinator" : "Single") +
             std::to_string(info.param.seed);
    });

// A batch committed without passing the session leaves the feed behind
// the store. Publish would reject every later seq, so Serve refuses up
// front and logs nothing.
TEST(ServingSession, RefusesWhileTheFeedIsBehindTheStore) {
  auto g = MakeSynthetic({.nodes = 40, .edges = 120, .seed = 8});
  ViolationEngine engine(GenerateGfdSet(g, {.count = 4, .k = 2, .seed = 3}));
  std::string dir = Scratch("session_feed_behind");
  ASSERT_TRUE(GraphStore::Init(dir, g));
  auto store = GraphStore::Open(dir);
  ASSERT_TRUE(store.has_value());
  auto feed = ViolationChangefeed::Open(dir, store->last_seq());
  ASSERT_NE(feed, nullptr);
  ServingSession session(*store, engine, feed.get());
  session.Prime();

  Rng rng(4);
  ASSERT_TRUE(store->Append(DeltaBytes(g, RandomBatch(g, rng, 3))));
  PropertyGraph cur = store->MaterializeCurrent();
  ServedBatch served = session.Serve(DeltaBytes(cur, RandomBatch(cur, rng, 3)));
  EXPECT_EQ(served.status, ServeStatus::kFeedBehind);
  EXPECT_NE(served.error.find("out of step"), std::string::npos);
  EXPECT_EQ(store->last_seq(), 1u);
  EXPECT_EQ(feed->last_seq(), 0u);
}

// Rules loaded against the current graph may name vocabulary that only
// the un-compacted overlay interns. The live view renders them exactly as
// the materialized graph does.
TEST(ServingSession, RendersRulesNamingOverlayVocabulary) {
  auto g = MakeSynthetic({.nodes = 30, .edges = 90, .attrs = 2, .seed = 9});
  std::string dir = Scratch("session_overlay_vocab");
  ASSERT_TRUE(GraphStore::Init(dir, g));
  auto store = GraphStore::Open(dir);
  ASSERT_TRUE(store.has_value());
  // Node 0 takes a value the snapshot has never seen.
  ASSERT_FALSE(g.NodeAttrs(0).empty());
  ASSERT_FALSE(g.NodeAttrs(1).empty());
  const AttrId key = g.NodeAttrs(0).front().key;
  GraphDelta intro;
  intro.SetAttr(0, key, intro.InternValue(g, "overlay_only"));
  ASSERT_TRUE(store->Append(DeltaBytes(g, intro)));

  // "Every node labelled like node 0 has key = 'overlay_only'".
  PropertyGraph current = store->MaterializeCurrent();
  const ValueId fresh = *current.FindValue("overlay_only");
  ASSERT_GE(fresh, g.values().size());
  ViolationEngine engine({Gfd(SingleNodePattern(g.NodeLabel(0)), {},
                              Literal::Const(0, key, fresh))});
  auto feed = ViolationChangefeed::Open(dir, store->last_seq());
  ASSERT_NE(feed, nullptr);
  ServingSession session(*store, engine, feed.get());
  session.Prime();

  // Flip node 0 back to a base value: one violation added.
  GraphDelta flip;
  flip.SetAttr(0, key, g.NodeAttrs(1).front().value);
  ServedBatch served = session.Serve(DeltaBytes(current, flip));
  ASSERT_EQ(served.status, ServeStatus::kServed) << served.error;
  ASSERT_EQ(served.diff.added.size(), 1u);

  std::vector<FeedEvent> replay;
  feed->Unsubscribe(feed->Subscribe(0, 1, &replay));
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_EQ(replay[0].payload,
            MaterializedPayload(store->MaterializeCurrent(), engine.rules(),
                                served.diff));
  EXPECT_NE(replay[0].payload.find("overlay_only"), std::string::npos);
}

}  // namespace
}  // namespace gfd
