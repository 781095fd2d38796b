// Helper binary of the end-to-end benchmark (e2ebench/run.py). It calls
// the library's public functions from outside; nothing here is linked
// into the program under test.
//
//   e2e_tool gen --scale N --seed S --clean OUT.tsv --noisy OUT.tsv
//       Generates the clean Yago2-like knowledge-base graph and a copy of
//       it with kNoise of its facts corrupted.
//   e2e_tool mine --graph clean.tsv [--out rules.gfd] [--spans FILE]
//       Loads the graph, runs ParDis (load balancing on) at n=4 and then
//       at n=1, checks that both serialize byte-identical (exit 3 when
//       they differ), and with --out writes the first kRulesPerGroup
//       members of the kServedGroups largest pattern groups as the served
//       rule set.
//   e2e_tool oracle --graph noisy.tsv --rules rules.gfd --deltas all.tsv
//       Applies every batch to the base graph in-process and counts the
//       violations a fresh ViolationEngine::Detect finds.
//   e2e_tool replay --store DIR --rules rules.gfd --deltas all.tsv
//                   --spans FILE
//       Replays the batches through the public calls the server's
//       /ingest handler makes, in the same order, on the store at DIR
//       (either backend). On about half the batches each call is
//       wrapped in a span; spans are written out as JSON lines at exit.
//
// Every verb prints one JSON object on stdout; diagnostics go to stderr.
// Batches in a deltas file are separated by "# batch" comment lines,
// which the delta loader skips, so the same file is one combined delta
// for `oracle` and a batch stream for `replay`.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "datagen/kb.h"
#include "datagen/noise.h"
#include "detect/engine.h"
#include "detect/metrics.h"
#include "detect/planner.h"
#include "gfd/serialize.h"
#include "graph/graph_view.h"
#include "graph/loader.h"
#include "obs/metrics.h"
#include "parallel/pardis.h"
#include "pattern/canonical.h"
#include "serve/changefeed.h"
#include "serve/coordinator.h"
#include "serve/graph_store.h"
#include "serve/metrics.h"
#include "serve/serving_store.h"
#include "util/hash.h"

using namespace gfd;

namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

const char* Flag(int argc, char** argv, const char* name) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (!std::strcmp(argv[i], name)) return argv[i + 1];
  }
  return nullptr;
}

const char* Required(int argc, char** argv, const char* name) {
  const char* v = Flag(argc, argv, name);
  if (!v) {
    std::fprintf(stderr, "missing %s\n", name);
    std::exit(2);
  }
  return v;
}

size_t Number(int argc, char** argv, const char* name) {
  return std::strtoull(Required(argc, argv, name), nullptr, 10);
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "e2e_tool: %s\n", msg.c_str());
  std::exit(1);
}

PropertyGraph LoadGraphOrDie(const char* path) {
  std::string error;
  auto g = LoadGraphTsvFile(path, &error);
  if (!g) Die(std::string(path) + ": " + error);
  return std::move(*g);
}

std::vector<Gfd> LoadRulesOrDie(const char* path, const PropertyGraph& g) {
  // Lenient, exactly as `gfdtool serve run` loads them, so the oracle and
  // the replay check the rule set the server actually serves.
  std::ifstream in(path);
  if (!in) Die(std::string("cannot open ") + path);
  auto rules = LoadGfdsLenient(in, g);
  if (rules.empty()) Die(std::string(path) + ": no loadable rules");
  return rules;
}

std::vector<std::string> ReadBatches(const char* path) {
  std::ifstream in(path);
  if (!in) Die(std::string("cannot open ") + path);
  std::vector<std::string> batches;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# batch", 0) == 0) {
      batches.emplace_back();
    } else if (!batches.empty()) {
      batches.back() += line + "\n";
    }
  }
  return batches;
}

/// In-memory spans: name, start, end, parent, batch seq. Written out as
/// JSON lines when the verb ends, never during the timed work. While
/// `active` is false nothing is recorded.
class Tracer {
 public:
  bool active = true;

  int64_t Open(const char* name, int64_t parent, uint64_t seq) {
    if (!active) return -1;
    spans_.push_back({name, parent, seq, Clock::now(), {}});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t id) {
    if (id >= 0) spans_[id].end = Clock::now();
  }
  double DurationMs(int64_t id) const {
    return Ms(spans_[id].start, spans_[id].end);
  }

  void Write(const char* path) const {
    if (!path) return;
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
          << s.name << "\",\"seq\":" << s.seq
          << ",\"start_us\":" << Ms(epoch_, s.start) * 1e3
          << ",\"end_us\":" << Ms(epoch_, s.end) * 1e3 << "}\n";
    }
  }

 private:
  struct Span {
    const char* name;
    int64_t parent;
    uint64_t seq;
    Clock::time_point start, end;
  };
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// Runs `fn`. While tracing, records it as a span and appends its
/// duration in ms to `samples`; otherwise adds nothing to the call.
template <typename Fn>
auto Traced(Tracer& tr, const char* name, int64_t parent, uint64_t seq,
            std::vector<double>* samples, Fn&& fn) {
  int64_t id = tr.Open(name, parent, seq);
  auto result = fn();
  if (id >= 0) {
    tr.Close(id);
    samples->push_back(tr.DurationMs(id));
  }
  return result;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// ---- gen ----

// Share of facts the served (noisy) graph has corrupted, so it carries
// violations of the rules mined from the clean one.
constexpr double kNoise = 0.08;

int Gen(int argc, char** argv) {
  KbConfig cfg{.scale = Number(argc, argv, "--scale"),
               .seed = Number(argc, argv, "--seed")};
  PropertyGraph clean = MakeYago2Like(cfg);
  NoiseConfig ncfg;
  ncfg.alpha = kNoise;
  ncfg.seed = cfg.seed + 1;
  auto noisy = InjectNoise(clean, ncfg);
  std::ofstream c(Required(argc, argv, "--clean"));
  SaveGraphTsv(clean, c);
  std::ofstream n(Required(argc, argv, "--noisy"));
  SaveGraphTsv(noisy.graph, n);
  if (!c || !n) Die("cannot write graph files");
  std::printf("{\"nodes\":%zu,\"edges\":%zu,\"noisy_edges\":%zu}\n",
              clean.NumNodes(), clean.NumEdges(), noisy.graph.NumEdges());
  return 0;
}

// ---- mine ----

// The served rule set: 250 rules in 10 pattern groups, as in bench_detect.
constexpr size_t kServedGroups = 10;
constexpr size_t kRulesPerGroup = 25;

/// The largest kServedGroups pattern groups (rules sharing one canonical
/// pattern), kRulesPerGroup rules each: the shape a deployed checker runs.
std::vector<Gfd> SelectServedRules(std::vector<Gfd> all) {
  std::unordered_map<std::vector<uint32_t>, std::vector<size_t>, VecHash>
      by_code;
  for (size_t i = 0; i < all.size(); ++i) {
    by_code[CanonicalCode(all[i].pattern, /*fix_pivot=*/true)].push_back(i);
  }
  std::vector<std::vector<size_t>> groups;
  for (auto& [code, members] : by_code) groups.push_back(std::move(members));
  std::sort(groups.begin(), groups.end(), [](const auto& a, const auto& b) {
    return a.size() != b.size() ? a.size() > b.size() : a[0] < b[0];
  });
  std::vector<Gfd> rules;
  for (size_t gi = 0; gi < groups.size() && gi < kServedGroups; ++gi) {
    for (size_t i = 0; i < groups[gi].size() && i < kRulesPerGroup; ++i) {
      rules.push_back(std::move(all[groups[gi][i]]));
    }
  }
  return rules;
}

std::string Serialize(const DiscoveryResult& r, const PropertyGraph& g) {
  std::ostringstream os;
  SaveGfds(r.AllGfds(), g, os);
  return os.str();
}

int Mine(int argc, char** argv) {
  const char* spans_path = Flag(argc, argv, "--spans");
  Tracer tr;
  tr.active = spans_path != nullptr;
  PropertyGraph g = LoadGraphOrDie(Required(argc, argv, "--graph"));

  DiscoveryConfig cfg;
  cfg.k = 3;
  cfg.support_threshold = std::max<uint64_t>(10, g.NumNodes() / 100);
  cfg.max_lhs_size = 2;

  double w4_ms = 0, w1_ms = 0;
  std::optional<DiscoveryResult> r4, r1;
  ClusterStats c4, c1;
  for (size_t workers : {size_t{4}, size_t{1}}) {
    ParallelRunConfig pcfg{.workers = workers, .load_balance = true};
    int64_t span = tr.Open(
        workers == 4 ? "parallel.pardis_w4" : "parallel.pardis_w1", -1, 0);
    auto t0 = Clock::now();
    auto res = ParDis(g, cfg, pcfg, workers == 4 ? &c4 : &c1);
    (workers == 4 ? w4_ms : w1_ms) = Ms(t0, Clock::now());
    tr.Close(span);
    (workers == 4 ? r4 : r1) = std::move(res);
  }
  bool identical = Serialize(*r4, g) == Serialize(*r1, g);

  auto rules = SelectServedRules(r4->AllGfds());
  if (const char* path = Flag(argc, argv, "--out")) {
    std::ofstream out(path);
    SaveGfds(rules, g, out);
    if (!out) Die("cannot write rules");
  }
  tr.Write(spans_path);

  const DiscoveryStats& s = r1->stats;
  auto cluster = [](const ClusterStats& c) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"match_s\":%.6f,\"validate_s\":%.6f,"
                  "\"bytes_shipped\":%llu,\"messages\":%llu,"
                  "\"max_skew\":%.6f,\"matches_rebalanced\":%llu}",
                  c.match_seconds, c.validate_seconds,
                  static_cast<unsigned long long>(c.bytes_shipped),
                  static_cast<unsigned long long>(c.messages), c.max_skew,
                  static_cast<unsigned long long>(c.matches_rebalanced));
    return std::string(buf);
  };
  std::printf(
      "{\"w4_ms\":%.6f,\"w1_ms\":%.6f,\"max_radius\":%u,"
      "\"core\":{\"patterns_spawned\":%llu,\"candidates_generated\":%llu,"
      "\"candidates_validated\":%llu,\"pruned_trivial\":%llu,"
      "\"pruned_reduced\":%llu,\"profile_matches\":%llu},"
      "\"cluster_w4\":%s,\"cluster_w1\":%s}\n",
      w4_ms, w1_ms, ViolationEngine(rules).MaxPatternRadius(),
      static_cast<unsigned long long>(s.patterns_spawned),
      static_cast<unsigned long long>(s.candidates_generated),
      static_cast<unsigned long long>(s.candidates_validated),
      static_cast<unsigned long long>(s.candidates_pruned_trivial),
      static_cast<unsigned long long>(s.candidates_pruned_reduced),
      static_cast<unsigned long long>(s.profile_matches),
      cluster(c4).c_str(), cluster(c1).c_str());
  return identical ? 0 : 3;
}

// ---- oracle ----

int Oracle(int argc, char** argv) {
  PropertyGraph base = LoadGraphOrDie(Required(argc, argv, "--graph"));
  const char* deltas = Required(argc, argv, "--deltas");
  std::string error;
  auto delta = LoadGraphDeltaTsvFile(deltas, base, &error);
  if (!delta) Die(std::string(deltas) + ": " + error);
  auto view = GraphView::Apply(base, *delta, &error);
  if (!view) Die(std::string(deltas) + ": " + error);
  PropertyGraph current = view->Materialize();
  ViolationEngine engine(
      LoadRulesOrDie(Required(argc, argv, "--rules"), base));
  auto result = engine.Detect(current);
  std::printf("{\"violations\":%zu}\n", result.violations.size());
  return 0;
}

// ---- replay ----

struct Counters {
  uint64_t fsyncs, matches, literal_evals, full_count, inc_count;
  double full_sum, inc_sum;

  static Counters Read() {
    return {FsyncsTotal().Value(),        DetectMatchesEnumerated().Value(),
            DetectLiteralEvals().Value(), DetectFullLatency().Count(),
            DetectIncrementalLatency().Count(), DetectFullLatency().Sum(),
            DetectIncrementalLatency().Sum()};
  }
};

int Replay(int argc, char** argv) {
  const char* dir = Required(argc, argv, "--store");
  const char* spans_path = Required(argc, argv, "--spans");
  auto batches = ReadBatches(Required(argc, argv, "--deltas"));
  Tracer tr;
  std::string error;

  // Open exactly as `gfdtool serve run` does (default compaction policy).
  std::optional<GraphStore> single;
  std::optional<Coordinator> coord;
  ServingStore* store = nullptr;
  if (std::ifstream(std::string(dir) + "/coordinator.meta").good()) {
    coord = Coordinator::Open(dir, CoordinatorOptions{}, &error);
    store = coord ? &*coord : nullptr;
  } else {
    single = GraphStore::Open(dir, GraphStoreOptions{}, &error);
    store = single ? &*single : nullptr;
  }
  if (!store) Die(std::string(dir) + ": " + error);
  PropertyGraph current = store->MaterializeCurrent();
  ViolationEngine engine(LoadRulesOrDie(Required(argc, argv, "--rules"),
                                        current));
  auto feed = ViolationChangefeed::Open(dir, store->last_seq(), &error);
  if (!feed) Die("feed: " + error);
  TouchServeMetrics();
  TouchDetectMetrics();

  // FeedService::Prime: fingerprint, seeding scan, planner calibration.
  DetectPlanner planner{PlannerConfig{}};
  std::ostringstream rules_text;
  SaveGfds(engine.rules(), current, rules_text);
  uint64_t fingerprint = Fnv1a64(rules_text.str());
  uint64_t count = 0;
  {
    GraphDelta no_delta;
    auto view = GraphView::Apply(current, no_delta);
    auto t0 = Clock::now();
    count = engine.Detect(*view, DetectOptions{}).violations.size();
    planner.ObserveFull(MakePlannerInputs(*view, 0, "", engine.NumGroups(),
                                          engine.NumAnchorPlans()),
                        Ms(t0, Clock::now()) / 1e3);
    if (!store->SetViolationCount(count, fingerprint, &error)) Die(error);
  }

  const Counters c0 = Counters::Read();
  const ServingMetricsSnapshot s0 = store->MetricsSnapshot();
  // A fixed-seed coin traces about half the batches and runs the rest
  // bare: both halves sample the same stationary stream at interleaved
  // times, so comparing their step times gives the tracing overhead
  // without a second replay. (A coin, not alternation: compaction recurs
  // every N batches, and an even N would always land on one half.) Span
  // means are over traced batches; counters cover every batch.
  std::mt19937 coin(1);
  std::vector<double> step_ms, traced_step_ms, bare_step_ms, append_ms,
      setcount_ms, materialize_ms, render_ms, publish_ms, compact_ms,
      metrics_ms, overlay_ops, materialized_edges;
  uint64_t full_batches = 0, anchors = 0, inc_matches = 0, scanned = 0,
           skipped = 0;
  for (size_t i = 0; i < batches.size(); ++i) {
    uint64_t seq = store->last_seq() + 1;
    tr.active = coin() & 1;
    auto t_step = Clock::now();
    int64_t step = tr.Open("serve.step", -1, seq);
    IncrementalOptions iopts;
    iopts.planner = &planner;
    uint64_t got_seq = 0;
    auto diff = Traced(tr, "serve.append_and_diff", step, seq, &append_ms, [&] {
      return store->AppendAndDiff(engine, batches[i], iopts, &got_seq, &error);
    });
    if (!diff) Die("batch " + std::to_string(seq) + ": " + error);
    if (diff->used_full_path) {
      count = diff->full_post_count;
      ++full_batches;
    } else {
      count += diff->added.size();
      count -= diff->removed.size();
      anchors += diff->stats.anchors_scanned;
      inc_matches += diff->stats.matches_seen;
    }
    scanned += diff->stats.groups_scanned;
    skipped += diff->stats.groups_skipped;
    if (!Traced(tr, "serve.set_count", step, seq, &setcount_ms, [&] {
          return store->SetViolationCount(count, fingerprint, &error);
        })) {
      Die(error);
    }
    PropertyGraph after = Traced(tr, "serve.materialize", step, seq,
                                 &materialize_ms,
                                 [&] { return store->MaterializeCurrent(); });
    std::string payload = Traced(tr, "serve.render", step, seq, &render_ms,
                                 [&] {
      GraphDelta no_delta;
      auto after_view = GraphView::Apply(after, no_delta);
      return SerializeDiffPayload(*after_view, engine.rules(), *diff);
    });
    if (!Traced(tr, "serve.publish", step, seq, &publish_ms, [&] {
          return feed->Publish(got_seq, std::move(payload), &error);
        })) {
      Die(error);
    }
    // Overlay size as detection saw it, before any compaction folds it.
    overlay_ops.push_back(
        static_cast<double>(store->MetricsSnapshot().overlay_ops));
    if (!Traced(tr, "serve.compact", step, seq, &compact_ms,
                [&] { return store->MaybeCompact(&error); })) {
      Die(error);
    }
    tr.Close(step);
    double ms = Ms(t_step, Clock::now());
    step_ms.push_back(ms);
    (tr.active ? traced_step_ms : bare_step_ms).push_back(ms);
    materialized_edges.push_back(static_cast<double>(after.NumEdges()));

    // The /metrics handler's work, outside the step: snapshot export plus
    // the Prometheus render.
    Traced(tr, "net.metrics_render", -1, seq, &metrics_ms, [&] {
      ExportSnapshotMetrics(store->MetricsSnapshot());
      return obs::MetricsRegistry::Default().RenderPrometheusText().size();
    });
  }
  const Counters c1 = Counters::Read();
  const ServingMetricsSnapshot s1 = store->MetricsSnapshot();
  tr.Write(spans_path);

  double n = std::max<double>(1, static_cast<double>(batches.size()));
  auto per_batch = [&](double total) { return total / n; };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  std::printf(
      "{\"batches\":%zu,\"traced\":%zu,\"violations\":%llu,"
      "\"step_p50_ms\":%.6f,"
      "\"traced_step_mean_ms\":%.6f,\"bare_step_mean_ms\":%.6f,"
      "\"append_and_diff_ms\":%.6f,"
      "\"set_count_ms\":%.6f,\"materialize_ms\":%.6f,\"render_ms\":%.6f,"
      "\"publish_ms\":%.6f,\"compact_ms\":%.6f,\"metrics_render_ms\":%.6f,"
      "\"compactions\":%zu,\"fsyncs_per_batch\":%.6f,"
      "\"overlay_ops_mean\":%.6f,\"bytes_shipped_per_batch\":%.6f,"
      "\"ops_maintenance_per_batch\":%.6f,\"full_path_share\":%.6f,"
      "\"anchors_scanned_per_batch\":%.6f,"
      "\"matches_enumerated_per_batch\":%.6f,"
      "\"literal_evals_per_batch\":%.6f,\"groups_skipped_share\":%.6f,"
      "\"full_ms\":%.6f,\"incremental_ms\":%.6f,\"detect_ms_per_batch\":%.6f,"
      "\"matches_per_anchor\":%.6f,\"materialized_edges_per_batch\":%.6f}\n",
      batches.size(), traced_step_ms.size(),
      static_cast<unsigned long long>(count), Median(step_ms), Mean(traced_step_ms), Mean(bare_step_ms),
      Mean(append_ms), Mean(setcount_ms),
      Mean(materialize_ms), Mean(render_ms), Mean(publish_ms),
      Mean(compact_ms), Mean(metrics_ms), s1.compactions - s0.compactions,
      per_batch(static_cast<double>(c1.fsyncs - c0.fsyncs)),
      Mean(overlay_ops),
      per_batch(static_cast<double>(s1.bytes_shipped - s0.bytes_shipped)),
      per_batch(static_cast<double>(s1.ops_maintenance - s0.ops_maintenance)),
      per_batch(static_cast<double>(full_batches)),
      per_batch(static_cast<double>(anchors)),
      per_batch(static_cast<double>(c1.matches - c0.matches)),
      per_batch(static_cast<double>(c1.literal_evals - c0.literal_evals)),
      ratio(static_cast<double>(skipped),
            static_cast<double>(scanned + skipped)),
      1e3 * ratio(c1.full_sum, static_cast<double>(c1.full_count)),
      1e3 * ratio(c1.inc_sum, static_cast<double>(c1.inc_count)),
      per_batch(1e3 * ((c1.full_sum - c0.full_sum) +
                       (c1.inc_sum - c0.inc_sum))),
      ratio(static_cast<double>(inc_matches), static_cast<double>(anchors)),
      Mean(materialized_edges));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: e2e_tool gen|mine|oracle|replay ...\n");
    return 2;
  }
  std::string verb = argv[1];
  if (verb == "gen") return Gen(argc - 2, argv + 2);
  if (verb == "mine") return Mine(argc - 2, argv + 2);
  if (verb == "oracle") return Oracle(argc - 2, argv + 2);
  if (verb == "replay") return Replay(argc - 2, argv + 2);
  std::fprintf(stderr, "unknown verb %s\n", verb.c_str());
  return 2;
}
