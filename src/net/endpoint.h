#ifndef TXREP_NET_ENDPOINT_H_
#define TXREP_NET_ENDPOINT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/mutex.h"
#include "common/blocking_queue.h"
#include "common/result.h"
#include "common/status.h"
#include "mw/broker.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace txrep::net {

/// NetEndpoint knobs.
struct EndpointOptions {
  /// Broker topic this endpoint fans out (must match the publisher's).
  std::string topic = "txrep.log";

  /// Encoded batches retained for resume-from-LSN replay. When the window
  /// rolls past a batch, its LSNs can no longer be served: a subscriber
  /// resuming below the floor is rejected and must bootstrap instead.
  size_t retention_capacity = 1024;

  /// Bound on each session's pending-batch queue. A full queue blocks the
  /// broker's delivery thread — the server-side link of the backpressure
  /// chain (DESIGN.md §13).
  size_t session_queue_capacity = 64;

  /// Accept-loop poll interval; bounds Stop() latency.
  int64_t accept_timeout_micros = 50'000;

  /// Per-session transport queues.
  TransportOptions transport = {};
};

/// The broker's wire boundary: attaches to a mw::Broker as a fanout and
/// streams every published log batch to remote subscribers as checksummed
/// frames, with per-session credit-based flow control and a bounded
/// retention window for resume-after-disconnect (DESIGN.md §13).
///
/// One session = one accepted connection: a handshake (kSubscribe →
/// kSubscribeAck carrying the catalog snapshot), then a credit-gated kBatch
/// stream. Sessions replay retained batches past the subscriber's resume
/// LSN first, then follow the live feed; a batch straddling the resume point
/// is sent whole and deduped on the subscriber.
///
/// Lifetime: construct after the broker, destroy before it (the fanout stays
/// attached for the broker's lifetime). Stop() (or the destructor) ends all
/// sessions with an orderly kBye.
class NetEndpoint {
 public:
  /// Attaches to `broker` (not owned, must outlive this endpoint) on
  /// `options.topic`. `metrics` (optional, same lifetime rule) receives
  /// session/retention gauges and per-role transport counters.
  NetEndpoint(mw::Broker* broker, EndpointOptions options = {},
              obs::MetricsRegistry* metrics = nullptr);

  ~NetEndpoint();

  NetEndpoint(const NetEndpoint&) = delete;
  NetEndpoint& operator=(const NetEndpoint&) = delete;

  /// Catalog snapshot (codec::EncodeCatalog bytes) handed to every
  /// subscriber in the kSubscribeAck, so remote replica processes can build
  /// their QueryTranslator. Set before serving.
  void SetCatalog(std::string encoded_catalog);

  /// Raises the retention floor: subscribers resuming below `lsn` are
  /// rejected with "bootstrap required" even though no batch was evicted
  /// yet. An endpoint attached to a primary that already shipped LSNs
  /// before serving sets this to the publisher's position — those LSNs
  /// never reached retention, so serving a resume below them would hand the
  /// subscriber a silent gap. Never lowers the floor.
  void SetRetentionFloor(uint64_t lsn);

  /// Starts accepting TCP subscribers on 127.0.0.1:`port` (0 = ephemeral,
  /// see port()).
  Status ListenAndServe(uint16_t port);

  /// Port the listener is bound to (0 before ListenAndServe).
  uint16_t port() const;

  /// Serves one session on an existing connected socket (the socketpair
  /// path: tests, benches, the schedule explorer's wire mode).
  Status ServeSocket(Socket socket);

  /// Stops the accept loop and ends every session with an orderly kBye.
  /// Idempotent. Retention stays intact (a restarted endpoint could resume).
  void Stop();

  /// Test hook: hard-aborts every live session's transport — subscribers
  /// see a reset mid-stream and must reconnect. The endpoint keeps serving.
  void DropSessions();

  size_t live_sessions() const;
  uint64_t last_published_lsn() const;

  /// Lowest resume LSN still servable from retention.
  uint64_t retained_floor_lsn() const;

 private:
  /// One retained (and possibly in-flight) encoded batch; shared between the
  /// retention window and session queues, so eviction never copies.
  struct RetainedBatch {
    uint64_t min_lsn = 0;
    uint64_t max_lsn = 0;
    uint64_t txn_count = 0;
    int64_t publish_micros = 0;
    std::string payload;  // EncodeLogBatch bytes.
  };
  using BatchRef = std::shared_ptr<const RetainedBatch>;

  struct Session {
    explicit Session(size_t queue_capacity) : queue(queue_capacity) {}

    // analyze: lock-free(owned by the session thread; other threads only call the thread-safe Abort/Send)
    std::unique_ptr<FrameTransport> transport;
    // analyze: lock-free(BlockingQueue is internally synchronized)
    BlockingQueue<BatchRef> queue;

    check::Mutex mu{"net.session.mu"};
    check::CondVar cv{&mu};
    uint64_t credits TXREP_GUARDED_BY(mu) = 0;
    bool done TXREP_GUARDED_BY(mu) = false;
  };

  /// Broker fanout: stamps the batch's LSN range, appends it to retention
  /// and feeds every live session queue (blocking on full ones).
  void PublishMessage(const mw::Message& message);

  void AcceptLoop();

  /// Handshake + batch sender for one connection; runs on a session thread.
  void RunSession(std::unique_ptr<FrameTransport> transport);

  /// Drains control frames (kCredit, kBye) of one session.
  void ControlLoop(const std::shared_ptr<Session>& session);

  void RemoveSession(const Session* session);
  void FinishHandshake(const Session* session);

  const EndpointOptions options_;
  // analyze: lock-free(set in ctor, never reseated; pointee has its own synchronization)
  obs::MetricsRegistry* metrics_;  // Not owned; may be null.

  mutable check::Mutex mu_{"net.endpoint.mu"};
  std::string catalog_ TXREP_GUARDED_BY(mu_);
  std::deque<BatchRef> retained_ TXREP_GUARDED_BY(mu_);
  /// Highest LSN evicted from retention; resumes below this are rejected.
  uint64_t floor_lsn_ TXREP_GUARDED_BY(mu_) = 0;
  uint64_t last_published_lsn_ TXREP_GUARDED_BY(mu_) = 0;
  std::vector<std::shared_ptr<Session>> sessions_ TXREP_GUARDED_BY(mu_);
  /// Sessions still in the handshake (not fed by PublishMessage yet); Stop
  /// and DropSessions abort these so a stalled handshake cannot hang a join.
  std::vector<std::shared_ptr<Session>> handshaking_ TXREP_GUARDED_BY(mu_);
  std::vector<std::thread> session_threads_ TXREP_GUARDED_BY(mu_);
  bool stopping_ TXREP_GUARDED_BY(mu_) = false;

  std::atomic<bool> accepting_{false};
  // analyze: lock-free(fd owned here; accept thread polls it, mutated only after joins)
  Socket listener_;
  // analyze: lock-free(thread handle; started once, joined in Stop/dtor only)
  std::thread accept_thread_;

  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Gauge* g_sessions_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Gauge* g_retained_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_credit_stalls_ = nullptr;
};

}  // namespace txrep::net

#endif  // TXREP_NET_ENDPOINT_H_
