// The HTTP surface of the violation changefeed server: routes the four
// endpoints of `gfdtool serve run` onto one ServingSession (the serving
// loop, serve/serving_session.h) and its ViolationChangefeed.
//
//   POST /ingest   one TSV delta batch -> ServingSession::Serve; responds
//                  with seq + diff summary. Validation failures are 422
//                  and nothing reaches the log; a feed out of step with
//                  the store is 503. Per-client token-bucket rate
//                  limiting (429).
//   GET  /feed     SSE stream of per-batch violation diffs. ?cursor=<seq>
//                  replays every durable record after <seq> before going
//                  live; ?rule= / ?label= / ?pivot= filter; ?max_events=
//                  closes the stream after N events (scripting aid).
//   GET  /metrics  live Prometheus text (obs registry + store snapshot).
//   GET  /status   JSON summary: seq, backend, fragments, counters.
//
// Concurrency: the session and its ServingStore are not thread-safe, so
// every touch -- ingest, and the snapshot reads of /status and /metrics
// -- serializes through one mutex; that same mutex makes this process
// the single writer and keeps feed publishes in batch order. Feed
// subscribers never take it: they read the durable feed log and their
// own bounded queues.
#ifndef GFD_NET_FEED_SERVICE_H_
#define GFD_NET_FEED_SERVICE_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "net/http_server.h"
#include "net/rate_limiter.h"
#include "serve/changefeed.h"
#include "serve/serving_session.h"

namespace gfd::net {

struct FeedServiceOptions {
  /// Live-queue bound per subscriber; a publish that overflows it
  /// evicts the subscriber (slow-consumer disconnect).
  size_t subscriber_queue_cap = 256;
  /// Heartbeat period for idle feed streams (an SSE comment line; also
  /// how fast a dead client is noticed).
  int64_t heartbeat_ms = 5000;
  /// /ingest token bucket per client host. 0 = unlimited.
  double ingest_rate_per_sec = 0;
  double ingest_burst = 8;
  /// Reported by /status ("single" | "distributed").
  std::string backend = "single";
};

class FeedService {
 public:
  /// Does not take ownership; `session` -- which must have a feed -- must
  /// outlive the service (and the HttpServer dispatching into it). Until
  /// the session is primed, /ingest answers 503.
  FeedService(ServingSession& session, FeedServiceOptions opts);

  /// The HttpHandler: dispatches one request to its endpoint.
  void Handle(const HttpRequest& req, ResponseWriter& w);

 private:
  void Ingest(const HttpRequest& req, ResponseWriter& w);
  void Feed(const HttpRequest& req, ResponseWriter& w);
  void Metrics(ResponseWriter& w);
  void Status(ResponseWriter& w);

  ServingSession& session_;
  ViolationChangefeed& feed_;
  FeedServiceOptions opts_;
  TokenBucketLimiter limiter_;

  /// Single-writer enforcement. guards: every call on session_ and its
  /// ServingStore. Publish happens inside it so feed order == batch
  /// order.
  mutable std::mutex store_mu_;
};

}  // namespace gfd::net

#endif  // GFD_NET_FEED_SERVICE_H_
