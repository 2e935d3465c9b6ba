#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/accelerator.hpp"
#include "core/batch_engine.hpp"
#include "obs/metrics.hpp"

namespace mda::serve {
namespace {

using core::QueryRequest;
using core::QueryResponse;
using core::QueryStatus;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One client socket.  Owns the fd (closed on destruction, so a worker
/// holding a shared_ptr can never write into a recycled descriptor); writes
/// serialise on write_mutex because responses come from shard workers and
/// the IO thread alike.
struct Connection {
  explicit Connection(int fd_in, std::size_t max_frame)
      : fd(fd_in), reader(max_frame) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd = -1;
  FrameReader reader;
  std::mutex write_mutex;
  std::atomic<bool> alive{true};
};

/// Write the whole buffer to a nonblocking socket; false = peer gone or
/// stuck.  `budget_s` bounds how long the caller may wait on POLLOUT for a
/// slow reader: shard workers pass min(write bound, the request's remaining
/// deadline) so a slow-loris peer can never pin a worker past the point the
/// response stopped mattering; the IO thread passes 0 (never wait) so one
/// peer with a full receive buffer cannot head-of-line block reads/accepts
/// for everyone else.
bool write_all(int fd, const std::uint8_t* data, std::size_t n,
               double budget_s) {
  std::size_t off = 0;
  const double give_up_s = budget_s > 0.0 ? now_s() + budget_s : 0.0;
  while (off < n) {
    const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (budget_s <= 0.0) return false;
      const double remaining = give_up_s - now_s();
      if (remaining <= 0.0) return false;
      const int timeout_ms = static_cast<int>(
          std::min(remaining * 1000.0 + 1.0, 5000.0));
      pollfd pfd{fd, POLLOUT, 0};
      const int pr = ::poll(&pfd, 1, timeout_ms);
      if (pr < 0 && errno != EINTR) return false;
      continue;  // pr == 0 re-checks the budget at the top of the loop.
    }
    return false;
  }
  return true;
}

/// Everything that selects a distinct shard configuration.
struct ShardKey {
  int kind = -1;  ///< dist::DistanceKind index; -1 = server default spec.
  std::uint64_t threshold_bits = 0;
  int band = -1;
  int backend = -1;  ///< core::Backend index; -1 = configured default.

  bool operator<(const ShardKey& o) const {
    return std::tie(kind, threshold_bits, band, backend) <
           std::tie(o.kind, o.threshold_bits, o.band, o.backend);
  }
};

/// An admitted request waiting in a replica queue.
struct Pending {
  std::shared_ptr<Connection> conn;
  std::uint64_t id = 0;
  QueryRequest request;
  double arrival_s = 0.0;
  bool counted_inflight = false;
};

/// Collapse key: the exact bits that determine a solve's result within one
/// shard — payload plus per-request solve knobs (tenant/deadline/id are
/// envelope, not solve inputs).
std::string collapse_key(const QueryRequest& req) {
  std::string key;
  key.reserve(16 + 8 * (req.p.size() + req.q.size()));
  auto put_bytes = [&key](const void* p, std::size_t n) {
    key.append(static_cast<const char*>(p), n);
  };
  const std::uint64_t p_len = req.p.size();
  put_bytes(&p_len, sizeof p_len);
  if (!req.p.empty()) put_bytes(req.p.data(), 8 * req.p.size());
  if (!req.q.empty()) put_bytes(req.q.data(), 8 * req.q.size());
  const std::int32_t backend =
      req.backend ? static_cast<std::int32_t>(*req.backend) : -1;
  put_bytes(&backend, sizeof backend);
  put_bytes(&req.fault_attempt, sizeof req.fault_attempt);
  return key;
}

/// The deterministic probe payload (the cheap periodic health query): small
/// equal-length sequences with a nonzero reference distance, so the probe's
/// relative error is meaningful for every distance kind.
QueryRequest make_probe(std::size_t len) {
  std::vector<double> p(len);
  std::vector<double> q(len);
  for (std::size_t i = 0; i < len; ++i) {
    p[i] = static_cast<double>(i % 4);
    q[i] = static_cast<double>((i + 1) % 4);
  }
  return QueryRequest::owning(std::move(p), std::move(q));
}

constexpr std::uint8_t kHealthy =
    static_cast<std::uint8_t>(ReplicaState::Healthy);
constexpr std::uint8_t kDegraded =
    static_cast<std::uint8_t>(ReplicaState::Degraded);
constexpr std::uint8_t kScrubbing =
    static_cast<std::uint8_t>(ReplicaState::Scrubbing);
constexpr std::uint8_t kDown = static_cast<std::uint8_t>(ReplicaState::Down);

/// Probe passes run while a scrub holds the replica, so the re-tuned array
/// re-earns (or re-fails) its score before traffic routes back to it.
constexpr int kScrubProbes = 3;
/// Worker write-wait ceiling [s]; the effective budget is min(this, the
/// request's remaining deadline).
constexpr double kWriteBoundS = 5.0;
/// Latency ring size per shard (retry-after hint source).
constexpr std::size_t kLatencyRing = 64;

const obs::Gauge& unhealthy_gauge() {
  static const obs::Gauge g("mda.serve.health.unhealthy");
  return g;
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServeOptions opts) : opts_(std::move(opts)) {
    if (opts_.coalesce_window == 0) opts_.coalesce_window = 1;
    if (opts_.shard_queue_depth == 0) opts_.shard_queue_depth = 1;
    opts_.replicas = std::clamp<std::size_t>(opts_.replicas, 1, 255);
  }
  ~Impl() { stop(); }

  /// One shard replica: its own accelerator (own instance cache, which a
  /// scrub keeps), its own health scoreboard, queue and worker.
  /// `solve_mutex` serialises solves against scrub / fault-injection /
  /// restart, so no query ever observes a half-tuned array; `admin_mu`
  /// serialises state transitions.
  struct Replica {
    Replica(std::uint32_t idx, core::AcceleratorConfig cfg,
            const core::DistanceSpec& sp, const fault::HealthConfig& hc)
        : index(idx),
          acc(std::move(cfg)),
          board(std::make_shared<fault::HealthScoreboard>(hc)) {
      acc.configure(sp);
      acc.set_health(board);
      plan = acc.config().faults;
    }

    std::uint32_t index;
    core::Accelerator acc;
    std::shared_ptr<fault::HealthScoreboard> board;
    /// The plan the hardware currently carries; survives kill/restart (a
    /// process restart does not heal physical devices).
    std::shared_ptr<const fault::FaultPlan> plan;

    std::mutex mutex;  ///< Guards queue.
    std::condition_variable cv;
    std::deque<Pending> queue;
    std::thread worker;

    std::mutex solve_mutex;  ///< Solves vs scrub/inject/restart.
    std::mutex admin_mu;     ///< State transitions.  Never taken while
                             ///< holding solve_mutex (lock order: admin
                             ///< before solve).
    /// kDown is the one record of a killed replica.
    std::atomic<std::uint8_t> state{kHealthy};
  };

  struct Shard {
    Shard(ShardKey k, core::AcceleratorConfig cfg, core::DistanceSpec sp,
          std::size_t n_replicas, const fault::HealthConfig& hc)
        : key(k), base_cfg(std::move(cfg)), spec(std::move(sp)) {
      // Each replica owns its instance pool and scoreboard.
      base_cfg.array_cache = nullptr;
      base_cfg.health = nullptr;
      for (std::size_t i = 0; i < n_replicas; ++i) {
        replicas.push_back(std::make_unique<Replica>(
            static_cast<std::uint32_t>(i), base_cfg, spec, hc));
      }
    }

    ShardKey key;
    core::AcceleratorConfig base_cfg;
    core::DistanceSpec spec;
    std::vector<std::unique_ptr<Replica>> replicas;
    std::atomic<std::uint32_t> rr{0};  ///< Round-robin routing cursor.

    std::mutex lat_mu;  ///< Guards the served-latency ring below.
    std::vector<double> latencies;
    std::size_t lat_pos = 0;
  };

  ServeOptions opts_;
  /// The one pool every replica worker solves its window on (default
  /// size: hardware_concurrency), so idle cores go to the hot shard.
  core::BatchEngine engine_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::thread io_thread_;

  /// Background scrub scan (selfheal.auto_scrub).  scan_mu_ guards
  /// scan_stop_; pass_mu_ serialises whole scan passes, and stop() holds it
  /// while it destroys the shard table a pass walks without shard_mutex_.
  std::mutex scan_mu_;
  std::condition_variable scan_cv_;
  bool scan_stop_ = false;
  std::mutex pass_mu_;
  std::thread scan_thread_;

  std::mutex conn_mutex_;
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;

  std::mutex shard_mutex_;
  std::map<ShardKey, std::unique_ptr<Shard>> shards_;

  std::mutex quota_mutex_;
  std::unordered_map<std::uint64_t, std::size_t> inflight_;

  std::atomic<std::uint64_t> n_connections_{0};
  std::atomic<std::uint64_t> n_requests_{0};
  std::atomic<std::uint64_t> n_responses_{0};
  std::atomic<std::uint64_t> n_rejected_{0};
  std::atomic<std::uint64_t> n_collapsed_{0};
  std::atomic<std::uint64_t> n_solves_{0};
  std::atomic<std::uint64_t> n_shards_{0};  ///< Monotonic (survives stop()).
  std::atomic<std::uint64_t> n_failovers_{0};
  std::atomic<std::uint64_t> n_scrubs_{0};
  std::atomic<std::uint64_t> n_probes_{0};
  std::atomic<std::uint64_t> n_kills_{0};
  std::atomic<std::uint64_t> n_restarts_{0};
  std::atomic<std::int64_t> n_unhealthy_{0};

  // ---- lifecycle ----

  void start() {
    if (running_.load()) return;
    stopping_.store(false);

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
    const int on = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &on, sizeof on);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opts_.port);
    if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
      teardown_fds();
      throw std::runtime_error("serve: bad host address " + opts_.host);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      teardown_fds();
      throw std::runtime_error("serve: bind failed: " +
                               std::string(std::strerror(errno)));
    }
    if (::listen(listen_fd_, opts_.listen_backlog) != 0) {
      teardown_fds();
      throw std::runtime_error("serve: listen failed");
    }
    sockaddr_in bound{};
    socklen_t blen = sizeof bound;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
    bound_port_ = ntohs(bound.sin_port);

    epoll_fd_ = ::epoll_create1(0);
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
    if (epoll_fd_ < 0 || wake_fd_ < 0) {
      teardown_fds();
      throw std::runtime_error("serve: epoll/eventfd setup failed");
    }
    epoll_add(listen_fd_);
    epoll_add(wake_fd_);

    running_.store(true);
    io_thread_ = std::thread([this] { io_loop(); });
    if (opts_.selfheal.auto_scrub) {
      {
        std::lock_guard<std::mutex> lk(scan_mu_);
        scan_stop_ = false;
      }
      scan_thread_ = std::thread([this] { scan_loop(); });
    }
  }

  void stop() {
    if (!running_.exchange(false)) return;
    stopping_.store(true);
    // The scan first: no scrub may check a replica out once the workers
    // start their final drain, and a forced pass still in flight finishes
    // before the shard table it walks is destroyed.
    if (scan_thread_.joinable()) {
      {
        std::lock_guard<std::mutex> lk(scan_mu_);
        scan_stop_ = true;
      }
      scan_cv_.notify_all();
      scan_thread_.join();
      scan_thread_ = std::thread();
    }
    std::lock_guard<std::mutex> pass(pass_mu_);
    // Wake the IO thread, join it, then drain the shards: their workers see
    // stopping_ and answer anything still queued with ShuttingDown.
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t w = ::write(wake_fd_, &one, sizeof one);
    if (io_thread_.joinable()) io_thread_.join();
    {
      std::lock_guard<std::mutex> lk(shard_mutex_);
      for (auto& [key, shard] : shards_) {
        for (auto& r : shard->replicas) wake(*r);
      }
      for (auto& [key, shard] : shards_) {
        for (auto& r : shard->replicas) {
          if (r->worker.joinable()) r->worker.join();
        }
      }
      // Belt and braces: the workers drained their queues on the way out,
      // but sweep anything left so no admitted request goes unanswered.
      for (auto& [key, shard] : shards_) {
        for (auto& r : shard->replicas) {
          for (Pending& p : r->queue) {
            release_quota(p);
            respond(p.conn,
                    reject_hint(p.id, p.request.tenant,
                                QueryStatus::ShuttingDown, "server stopping",
                                0.5),
                    p.arrival_s, /*may_block=*/true, p.request.deadline_s);
          }
          r->queue.clear();
        }
      }
      // Clear the table: its workers have exited, so handing a later
      // request to one of these shards would enqueue it forever.  start()
      // after stop() rebuilds shards on demand.
      shards_.clear();
    }
    n_unhealthy_.store(0);
    unhealthy_gauge().set(0.0);
    {
      std::lock_guard<std::mutex> lk(quota_mutex_);
      inflight_.clear();
    }
    {
      std::lock_guard<std::mutex> lk(conn_mutex_);
      conns_.clear();  // Destructors close the sockets.
    }
    teardown_fds();
  }

  void teardown_fds() {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
  }

  void epoll_add(int fd) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }

  // ---- IO thread ----

  void io_loop() {
    std::vector<epoll_event> events(64);
    std::vector<std::uint8_t> buf(64 * 1024);
    while (!stopping_.load()) {
      const int n =
          ::epoll_wait(epoll_fd_, events.data(),
                       static_cast<int>(events.size()), /*timeout_ms=*/-1);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n && !stopping_.load(); ++i) {
        const int fd = events[i].data.fd;
        if (fd == wake_fd_) {
          std::uint64_t drain = 0;
          [[maybe_unused]] ssize_t r = ::read(wake_fd_, &drain, sizeof drain);
        } else if (fd == listen_fd_) {
          accept_ready();
        } else {
          handle_readable(fd, buf);
        }
      }
    }
  }

  void accept_ready() {
    static const obs::Counter connections("mda.serve.connections");
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) return;  // EAGAIN or transient error; epoll re-arms.
      std::lock_guard<std::mutex> lk(conn_mutex_);
      if (conns_.size() >= opts_.max_connections) {
        ::close(fd);
        continue;
      }
      const int on = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof on);
      conns_.emplace(fd,
                     std::make_shared<Connection>(fd, opts_.max_frame_bytes));
      epoll_add(fd);
      connections.add();
      n_connections_.fetch_add(1);
    }
  }

  void close_connection(const std::shared_ptr<Connection>& conn) {
    conn->alive.store(false);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::shutdown(conn->fd, SHUT_RDWR);
    std::lock_guard<std::mutex> lk(conn_mutex_);
    conns_.erase(conn->fd);  // fd closes once the last worker ref drops.
  }

  void handle_readable(int fd, std::vector<std::uint8_t>& buf) {
    std::shared_ptr<Connection> conn;
    {
      std::lock_guard<std::mutex> lk(conn_mutex_);
      auto it = conns_.find(fd);
      if (it == conns_.end()) return;  // Already closed.
      conn = it->second;
    }
    bool peer_closed = false;
    for (;;) {
      const ssize_t r = ::recv(fd, buf.data(), buf.size(), 0);
      if (r > 0) {
        conn->reader.append(buf.data(), static_cast<std::size_t>(r));
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      peer_closed = true;  // Orderly shutdown or hard error.
      break;
    }
    for (;;) {
      FrameReader::Result res = conn->reader.next();
      if (res.status == FrameReader::Status::NeedMore) break;
      if (res.status == FrameReader::Status::Error ||
          res.type == FrameType::Response) {
        // The byte stream is unsynchronised (or the peer speaks the wrong
        // role): best-effort error response, then drop the connection.
        respond(conn,
                QueryResponse::reject(0, 0, QueryStatus::BadRequest,
                                      res.status == FrameReader::Status::Error
                                          ? res.error
                                          : "unexpected response frame"),
                /*arrival_s=*/0.0, /*may_block=*/false);
        close_connection(conn);
        return;
      }
      if (res.type == FrameType::Health) {
        // A health poll: answer with a fleet snapshot.  Non-blocking, like
        // every IO-thread write.
        const std::vector<std::uint8_t> frame =
            encode_health_frame(health_report());
        bool failed = false;
        if (conn->alive.load()) {
          std::lock_guard<std::mutex> lk(conn->write_mutex);
          failed = !write_all(conn->fd, frame.data(), frame.size(),
                              /*budget_s=*/0.0);
        }
        if (failed) {
          close_connection(conn);
          return;
        }
        continue;
      }
      handle_request(conn, res.payload);
    }
    if (peer_closed) close_connection(conn);
  }

  // ---- admission ----

  void handle_request(const std::shared_ptr<Connection>& conn,
                      const std::vector<std::uint8_t>& payload) {
    static const obs::Counter requests("mda.serve.requests");
    requests.add();
    n_requests_.fetch_add(1);
    const double arrival = now_s();

    std::string err;
    std::optional<DecodedRequest> dec = decode_request_payload(payload, &err);
    if (!dec) {
      // Malformed payload: the framing is intact, so the connection
      // survives; correlate the rejection by id when the prefix is readable.
      std::uint64_t id = 0;
      std::uint64_t tenant = 0;
      peek_request_ids(payload, &id, &tenant);
      respond(conn, QueryResponse::reject(id, tenant, QueryStatus::BadRequest,
                                          std::move(err)),
              arrival, /*may_block=*/false);
      return;
    }
    Pending pending{conn, dec->id, std::move(dec->request), arrival, false};
    const std::uint64_t tenant = pending.request.tenant;

    if (stopping_.load()) {
      respond(conn,
              reject_hint(pending.id, tenant, QueryStatus::ShuttingDown,
                          "server stopping", 0.5),
              arrival, /*may_block=*/false);
      return;
    }
    Shard* shard = find_or_create_shard(pending.request);
    if (shard == nullptr) {
      respond(conn,
              reject_hint(pending.id, tenant, QueryStatus::Overloaded,
                          "shard table full", 0.05),
              arrival, /*may_block=*/false);
      return;
    }
    if (opts_.tenant_inflight_quota > 0) {
      std::lock_guard<std::mutex> lk(quota_mutex_);
      std::size_t& count = inflight_[tenant];
      if (count >= opts_.tenant_inflight_quota) {
        static const obs::Counter quota_rejects("mda.serve.quota_rejects");
        quota_rejects.add();
        respond(conn, QueryResponse::reject(pending.id, tenant,
                                            QueryStatus::QuotaExceeded,
                                            "tenant in-flight quota exceeded"),
                arrival, /*may_block=*/false);
        return;
      }
      ++count;
      pending.counted_inflight = true;
    }
    // Route: round-robin over Healthy replicas, then Degraded ones; never
    // a Scrubbing or Down replica.  First routable replica with queue room
    // wins.
    const std::vector<Replica*> order = route_order(*shard);
    for (Replica* r : order) {
      switch (try_enqueue(*r, pending)) {
        case Enq::Ok:
          return;
        case Enq::Stopping:
          release_quota(pending);
          respond(conn,
                  reject_hint(pending.id, tenant, QueryStatus::ShuttingDown,
                              "server stopping", 0.5),
                  arrival, /*may_block=*/false);
          return;
        case Enq::Full:
          continue;
      }
    }
    static const obs::Counter overloads("mda.serve.overloads");
    overloads.add();
    release_quota(pending);
    respond(conn,
            reject_hint(pending.id, tenant, QueryStatus::Overloaded,
                        order.empty() ? "no routable replica"
                                      : "shard queue full",
                        retry_after_hint(*shard)),
            arrival, /*may_block=*/false);
  }

  [[nodiscard]] static ShardKey key_for(const QueryRequest& req) {
    ShardKey key;
    if (req.kind) {
      key.kind = static_cast<int>(*req.kind);
      std::memcpy(&key.threshold_bits, &req.threshold,
                  sizeof key.threshold_bits);
      key.band = req.band;
    }
    if (req.backend) key.backend = static_cast<int>(*req.backend);
    return key;
  }

  Shard* find_or_create_shard(const QueryRequest& req) {
    const ShardKey key = key_for(req);
    std::lock_guard<std::mutex> lk(shard_mutex_);
    auto it = shards_.find(key);
    if (it != shards_.end()) return it->second.get();
    if (shards_.size() >= opts_.max_shards) return nullptr;

    core::AcceleratorConfig cfg = opts_.accelerator;
    if (key.backend >= 0) cfg.backend = static_cast<core::Backend>(key.backend);
    core::DistanceSpec spec = opts_.default_spec;
    if (req.kind) {
      spec = core::DistanceSpec{};
      spec.kind = *req.kind;
      spec.threshold = req.threshold;
      spec.band = req.band;
    }
    auto shard = std::make_unique<Shard>(key, std::move(cfg), std::move(spec),
                                         opts_.replicas,
                                         opts_.selfheal.health);
    Shard* raw = shard.get();
    for (auto& r : raw->replicas) {
      Replica* rp = r.get();
      rp->worker = std::thread([this, raw, rp] { worker_loop(*raw, *rp); });
    }
    shards_.emplace(key, std::move(shard));
    n_shards_.fetch_add(1);
    static const obs::Gauge shard_gauge("mda.serve.shards");
    shard_gauge.set(static_cast<double>(shards_.size()));
    return raw;
  }

  // ---- routing ----

  enum class Enq : std::uint8_t { Ok, Full, Stopping };

  /// Push onto a replica queue if there is room and it is accepting.
  /// Consumes `pending` only on Ok.
  Enq try_enqueue(Replica& r, Pending& pending) {
    {
      std::lock_guard<std::mutex> lk(r.mutex);
      // Re-check under the replica mutex: if the worker already took its
      // final stopping_ drain, a push here would never be answered.  A
      // false read under the mutex orders this push before that drain, so
      // the worker is guaranteed to sweep it.
      if (stopping_.load()) return Enq::Stopping;
      if (r.state.load() == kDown) return Enq::Full;  // Route on.
      if (r.queue.size() >= opts_.shard_queue_depth) return Enq::Full;
      r.queue.push_back(std::move(pending));
    }
    r.cv.notify_one();
    return Enq::Ok;
  }

  /// Routable replicas in preference order: Healthy round-robin first, then
  /// Degraded (a degraded replica still answers correctly — detectors mask
  /// or fall back — it is just more likely to be slow/imprecise).
  std::vector<Replica*> route_order(Shard& shard) {
    std::vector<Replica*> order;
    order.reserve(shard.replicas.size());
    const std::uint32_t start = shard.rr.fetch_add(1);
    const std::size_t n = shard.replicas.size();
    for (const std::uint8_t want : {kHealthy, kDegraded}) {
      for (std::size_t k = 0; k < n; ++k) {
        Replica* r = shard.replicas[(start + k) % n].get();
        if (r->state.load() == want) order.push_back(r);
      }
    }
    return order;
  }

  /// First routable sibling of `self` (failover home).
  Replica* pick_sibling(Shard& shard, const Replica* self) {
    for (const std::uint8_t want : {kHealthy, kDegraded}) {
      for (auto& r : shard.replicas) {
        if (r.get() == self) continue;
        if (r->state.load() == want) return r.get();
      }
    }
    return nullptr;
  }

  void release_quota(const Pending& pending) {
    if (!pending.counted_inflight) return;
    std::lock_guard<std::mutex> lk(quota_mutex_);
    auto it = inflight_.find(pending.request.tenant);
    if (it != inflight_.end() && it->second > 0) --it->second;
  }

  double retry_after_hint(Shard& shard) {
    double mean = 0.01;
    {
      std::lock_guard<std::mutex> lk(shard.lat_mu);
      if (!shard.latencies.empty()) {
        double sum = 0.0;
        for (double v : shard.latencies) sum += v;
        mean = sum / static_cast<double>(shard.latencies.size());
      }
    }
    return std::clamp(mean * 8.0, 0.005, 1.0);
  }

  void record_latency(Shard& shard, double latency_s) {
    std::lock_guard<std::mutex> lk(shard.lat_mu);
    if (shard.latencies.size() < kLatencyRing) {
      shard.latencies.push_back(latency_s);
    } else {
      shard.latencies[shard.lat_pos] = latency_s;
      shard.lat_pos = (shard.lat_pos + 1) % kLatencyRing;
    }
  }

  // ---- replica state ----

  /// Wake the worker after stopping_ or the state changed.  Taking the
  /// queue mutex first means the worker is either before its predicate
  /// test (and sees the change) or already waiting (and gets the notify).
  static void wake(Replica& r) {
    { const std::lock_guard<std::mutex> lk(r.mutex); }
    r.cv.notify_all();
  }

  /// Transition + unhealthy-gauge upkeep.  Caller holds r.admin_mu.
  void set_state_locked(Replica& r, std::uint8_t st) {
    const std::uint8_t old = r.state.exchange(st);
    const bool was_un = old != kHealthy;
    const bool is_un = st != kHealthy;
    if (was_un != is_un) {
      const std::int64_t now_un =
          n_unhealthy_.fetch_add(is_un ? 1 : -1) + (is_un ? 1 : -1);
      unhealthy_gauge().set(static_cast<double>(now_un));
    }
  }

  /// Hysteresis: Degraded above unhealthy_threshold, back to Healthy below
  /// healthy_threshold, unchanged in between.  Scrubbing/Down untouched.
  void refresh_state(Replica& r) {
    std::lock_guard<std::mutex> lk(r.admin_mu);
    const std::uint8_t st = r.state.load();
    if (st == kScrubbing || st == kDown) return;
    if (r.board->unhealthy()) {
      if (st != kDegraded) set_state_locked(r, kDegraded);
    } else if (r.board->healthy()) {
      if (st != kHealthy) set_state_locked(r, kHealthy);
    }
  }

  // ---- self-healing ----

  void run_probe(Replica& r) {
    static const obs::Counter probes("mda.serve.health.probes");
    const QueryRequest req = make_probe(opts_.selfheal.probe_len);
    const core::ComputeOutcome out = r.acc.try_compute(req);
    r.board->record_probe(out.ok() ? out.value().relative_error : 1.0,
                          out.ok());
    probes.add();
    n_probes_.fetch_add(1);
  }

  /// Serving: neither checked out by a scrub nor killed.
  static bool serving(const Replica& r) {
    const std::uint8_t st = r.state.load();
    return st != kScrubbing && st != kDown;
  }

  /// The scan's idle test: the replica is serving, nothing is queued and no
  /// window is being solved (solve_mutex is free).  Returns the held solve
  /// lock when idle, an empty lock otherwise.
  static std::unique_lock<std::mutex> lock_if_idle(Replica& r) {
    std::unique_lock<std::mutex> solve_lk(r.solve_mutex, std::try_to_lock);
    if (!solve_lk.owns_lock()) return solve_lk;
    bool queued = false;
    {
      std::lock_guard<std::mutex> lk(r.mutex);
      queued = !r.queue.empty();
    }
    if (queued || !serving(r)) solve_lk.unlock();
    return solve_lk;
  }

  /// The scan's per-replica probe: only when the replica is idle (a probe
  /// must never delay traffic).
  void probe_replica(Replica& r) {
    if (opts_.selfheal.probe_len == 0) return;
    {
      const std::unique_lock<std::mutex> solve_lk = lock_if_idle(r);
      if (!solve_lk.owns_lock()) return;
      run_probe(r);
    }
    refresh_state(r);  // After solve_mutex is released (lock order).
  }

  /// Check the replica out, re-run program-and-verify, re-probe, return it.
  /// Queries can never observe a half-tuned array: admission stops routing
  /// here the moment the state flips, and requests already queued wait on
  /// solve_mutex.  A scrub is a retune plus a scoreboard reset; the
  /// replica's instance cache stays, because no pooled instance depends on
  /// the fault attempt (FullSpice arrays are built per query).
  bool do_scrub(Replica& r) {
    {
      std::lock_guard<std::mutex> lk(r.admin_mu);
      const std::uint8_t st = r.state.load();
      if (st == kScrubbing || st == kDown) return false;
      set_state_locked(r, kScrubbing);
    }
    {
      std::lock_guard<std::mutex> solve_lk(r.solve_mutex);
      r.board->reset();
      r.acc.retune();
      if (opts_.selfheal.probe_len > 0) {
        for (int i = 0; i < kScrubProbes; ++i) run_probe(r);
      }
    }
    n_scrubs_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lk(r.admin_mu);
      if (r.state.load() == kScrubbing) {
        set_state_locked(r, r.board->unhealthy() ? kDegraded : kHealthy);
      }
    }
    return true;
  }

  /// One scan pass over a snapshot of every replica, in shard-key order.
  /// A Down or Scrubbing replica is skipped (restart or the running scrub
  /// owns it).  Any other is probed, and scrubbed when its expected error
  /// is above the unhealthy threshold and it is idle (a busy replica is
  /// re-examined on the next pass).  Returns the number of scrubs run,
  /// failed ones included.
  std::size_t scrub_scan() {
    static const obs::Counter runs("mda.fault.scrub.runs");
    static const obs::Counter heals("mda.fault.scrub.heals");
    static const obs::Counter skipped_busy("mda.fault.scrub.skipped_busy");
    static const obs::Counter failures("mda.fault.scrub.failures");
    static const obs::Histogram duration("mda.fault.scrub.duration_s");
    std::lock_guard<std::mutex> pass(pass_mu_);
    std::vector<Replica*> replicas;
    {
      std::lock_guard<std::mutex> lk(shard_mutex_);
      for (auto& [key, s] : shards_) {
        for (auto& r : s->replicas) replicas.push_back(r.get());
      }
    }
    const fault::HealthConfig& hc = opts_.selfheal.health;
    std::size_t scrubbed = 0;
    for (Replica* r : replicas) {
      if (!serving(*r)) continue;
      probe_replica(*r);
      if (r->board->expected_error() <= hc.unhealthy_threshold) continue;
      if (!lock_if_idle(*r).owns_lock()) {
        skipped_busy.add();
        continue;
      }
      bool ok = false;
      {
        const obs::ScopedTimer timer(duration);
        ok = do_scrub(*r);
      }
      runs.add();
      if (!ok) {
        failures.add();
      } else if (r->board->expected_error() < hc.healthy_threshold) {
        heals.add();
      }
      ++scrubbed;
    }
    return scrubbed;
  }

  void scan_loop() {
    const double interval = opts_.selfheal.scan_interval_s > 0.0
                                ? opts_.selfheal.scan_interval_s
                                : 0.05;
    std::unique_lock<std::mutex> lk(scan_mu_);
    for (;;) {
      scan_cv_.wait_for(lk, std::chrono::duration<double>(interval),
                        [this] { return scan_stop_; });
      if (scan_stop_) return;
      lk.unlock();
      scrub_scan();
      lk.lock();
    }
  }

  // ---- chaos controls ----

  std::pair<Shard*, Replica*> addr(std::size_t shard_index,
                                   std::uint32_t replica) {
    std::lock_guard<std::mutex> lk(shard_mutex_);
    if (shard_index >= shards_.size()) return {nullptr, nullptr};
    auto it = std::next(shards_.begin(),
                        static_cast<std::ptrdiff_t>(shard_index));
    Shard* s = it->second.get();
    if (replica >= s->replicas.size()) return {s, nullptr};
    return {s, s->replicas[replica].get()};
  }

  bool kill_replica(std::size_t shard_index, std::uint32_t replica) {
    auto [s, r] = addr(shard_index, replica);
    if (r == nullptr) return false;
    {
      std::lock_guard<std::mutex> lk(r->admin_mu);
      if (r->state.load() == kDown) return false;
      set_state_locked(*r, kDown);
    }
    wake(*r);
    if (r->worker.joinable()) r->worker.join();
    static const obs::Counter kills("mda.serve.health.kills");
    kills.add();
    n_kills_.fetch_add(1);
    // Fail the orphaned queue over to a sibling; requests no sibling can
    // take are rejected Overloaded with a retry hint rather than dropped.
    std::deque<Pending> orphans;
    {
      std::lock_guard<std::mutex> lk(r->mutex);
      orphans.swap(r->queue);
    }
    static const obs::Counter failovers("mda.serve.health.failovers");
    for (Pending& p : orphans) {
      Replica* sibling = pick_sibling(*s, r);
      if (sibling != nullptr && try_enqueue(*sibling, p) == Enq::Ok) {
        failovers.add();
        n_failovers_.fetch_add(1);
        continue;
      }
      release_quota(p);
      respond(p.conn,
              reject_hint(p.id, p.request.tenant, QueryStatus::Overloaded,
                          "replica down; no failover target",
                          retry_after_hint(*s)),
              p.arrival_s, /*may_block=*/true, p.request.deadline_s);
    }
    return true;
  }

  bool restart_replica(std::size_t shard_index, std::uint32_t replica) {
    auto [s, r] = addr(shard_index, replica);
    if (r == nullptr) return false;
    {
      std::lock_guard<std::mutex> lk(r->admin_mu);
      if (r->state.load() != kDown) return false;
      // Fresh accelerator, same config and fault plan: a process restart
      // does not heal the physical devices.  Scoreboard resets (generation
      // bump) — the replica re-earns its score.
      core::AcceleratorConfig cfg = s->base_cfg;
      cfg.faults = r->plan;
      r->acc = core::Accelerator(std::move(cfg));
      r->acc.configure(s->spec);
      r->board->reset();
      r->acc.set_health(r->board);
      set_state_locked(*r, kHealthy);
    }
    Shard* sp = s;
    Replica* rp = r;
    r->worker = std::thread([this, sp, rp] { worker_loop(*sp, *rp); });
    static const obs::Counter restarts("mda.serve.health.restarts");
    restarts.add();
    n_restarts_.fetch_add(1);
    return true;
  }

  bool inject_fault_plan(std::size_t shard_index, std::uint32_t replica,
                         std::shared_ptr<const fault::FaultPlan> plan) {
    auto [s, r] = addr(shard_index, replica);
    (void)s;
    if (r == nullptr) return false;
    std::lock_guard<std::mutex> lk(r->admin_mu);
    r->plan = plan;  // A later restart rebuilds with this plan.
    if (r->state.load() != kDown) {
      // Wait out the in-flight batch so no solve straddles plans.
      std::lock_guard<std::mutex> solve_lk(r->solve_mutex);
      r->acc.set_fault_plan(std::move(plan));
    }
    return true;
  }

  bool scrub_replica(std::size_t shard_index, std::uint32_t replica) {
    Replica* r = addr(shard_index, replica).second;
    return r != nullptr && do_scrub(*r);
  }

  std::optional<fault::HealthSnapshot> scoreboard(std::size_t shard_index,
                                                  std::uint32_t replica) {
    const Replica* r = addr(shard_index, replica).second;
    if (r == nullptr) return std::nullopt;
    return r->board->snapshot();
  }

  [[nodiscard]] HealthReport health_report() {
    HealthReport rep;
    rep.failovers = n_failovers_.load();
    rep.kills = n_kills_.load();
    rep.restarts = n_restarts_.load();
    std::lock_guard<std::mutex> lk(shard_mutex_);
    for (auto& [key, s] : shards_) {
      ShardHealth sh;
      sh.kind = static_cast<std::uint8_t>(s->spec.kind);
      sh.backend = static_cast<std::uint8_t>(s->base_cfg.backend);
      sh.threshold = s->spec.threshold;
      sh.band = s->spec.band;
      for (auto& rp : s->replicas) {
        ReplicaHealth rh;
        rh.index = rp->index;
        rh.state = static_cast<ReplicaState>(rp->state.load());
        const fault::HealthSnapshot snap = rp->board->snapshot();
        rh.expected_error = snap.expected_error;
        rh.queries = snap.queries;
        rh.quarantines = snap.quarantines;
        rh.scrubs = snap.generation;
        {
          std::lock_guard<std::mutex> qlk(rp->mutex);
          rh.queue_depth = static_cast<std::uint32_t>(rp->queue.size());
        }
        sh.replicas.push_back(rh);
      }
      rep.shards.push_back(std::move(sh));
    }
    return rep;
  }

  // ---- shard workers ----

  void worker_loop(Shard& shard, Replica& r) {
    static const obs::Counter windows("mda.serve.windows");
    for (;;) {
      std::vector<Pending> batch;
      {
        std::unique_lock<std::mutex> lk(r.mutex);
        r.cv.wait(lk, [&] {
          return stopping_.load() || r.state.load() == kDown ||
                 !r.queue.empty();
        });
        if (stopping_.load()) {
          batch.assign(std::make_move_iterator(r.queue.begin()),
                       std::make_move_iterator(r.queue.end()));
          r.queue.clear();
          lk.unlock();
          for (Pending& p : batch) {
            deliver(shard, p,
                    reject_hint(p.id, p.request.tenant,
                                QueryStatus::ShuttingDown, "server stopping",
                                0.5));
          }
          return;
        }
        if (r.state.load() == kDown) return;  // Killer drains the queue.
        const std::size_t take =
            std::min(opts_.coalesce_window, r.queue.size());
        batch.assign(
            std::make_move_iterator(r.queue.begin()),
            std::make_move_iterator(r.queue.begin() +
                                    static_cast<std::ptrdiff_t>(take)));
        r.queue.erase(r.queue.begin(),
                      r.queue.begin() + static_cast<std::ptrdiff_t>(take));
      }
      windows.add();
      const std::vector<Pending*> live = drop_expired(shard, r, batch);
      if (live.empty()) continue;
      std::vector<QueryResponse> responses;
      {
        std::lock_guard<std::mutex> solve_lk(r.solve_mutex);
        responses = solve_window(r, live);
      }
      refresh_state(r);  // After solve_mutex is released (lock order).
      // Deliver last: a client that holds its answer finds the replica
      // idle, so a scan run right after it (the chaos soak's boundary scan)
      // sees the same replica state on every run.
      for (std::size_t i = 0; i < live.size(); ++i) {
        deliver(shard, *live[i], std::move(responses[i]));
      }
    }
  }

  /// Expire deadlines at dequeue: queue wait already exceeded the request's
  /// relative deadline, so a solve would be wasted work.  Returns the rest.
  std::vector<Pending*> drop_expired(Shard& shard, Replica& r,
                                     std::vector<Pending>& batch) {
    const double now = now_s();
    std::vector<Pending*> live;
    live.reserve(batch.size());
    for (Pending& p : batch) {
      if (p.request.deadline_s > 0.0 &&
          now - p.arrival_s > p.request.deadline_s) {
        static const obs::Counter expired("mda.serve.deadline_expired");
        expired.add();
        QueryResponse resp = QueryResponse::reject(
            p.id, p.request.tenant, QueryStatus::DeadlineExpired,
            "deadline expired in queue");
        resp.replica = r.index;
        deliver(shard, p, std::move(resp));
        continue;
      }
      live.push_back(&p);
    }
    return live;
  }

  /// Solve one window (caller holds r.solve_mutex) and return its responses
  /// in window order.
  std::vector<QueryResponse> solve_window(Replica& r,
                                          const std::vector<Pending*>& live) {
    static const obs::Counter collapsed("mda.serve.collapsed_requests");
    static const obs::Counter solves("mda.serve.solves");

    // 1. Collapse bitwise-identical requests within the window: one solve,
    //    fanned out.  Determinism makes this invisible in the responses.
    std::vector<std::size_t> slot_of(live.size());
    std::vector<const QueryRequest*> unique;
    if (opts_.collapse_duplicates) {
      std::unordered_map<std::string, std::size_t> seen;
      seen.reserve(live.size());
      for (std::size_t i = 0; i < live.size(); ++i) {
        auto [it, inserted] =
            seen.emplace(collapse_key(live[i]->request), unique.size());
        if (inserted) unique.push_back(&live[i]->request);
        slot_of[i] = it->second;
      }
      collapsed.add(static_cast<std::uint64_t>(live.size() - unique.size()));
      n_collapsed_.fetch_add(live.size() - unique.size());
    } else {
      unique.reserve(live.size());
      for (std::size_t i = 0; i < live.size(); ++i) {
        slot_of[i] = i;
        unique.push_back(&live[i]->request);
      }
    }

    // 2. Solve the unique requests on the shared engine, through the same
    //    try_compute entry point BatchEngine's batch APIs use, so served ≡
    //    direct is structural.  Each solve runs on a copy of the replica's
    //    accelerator (same config, same instance cache) whose health sink is
    //    that request's journal; replaying the journals in window order
    //    leaves the scoreboard exactly as a one-by-one loop would.
    solves.add(static_cast<std::uint64_t>(unique.size()));
    n_solves_.fetch_add(unique.size());
    std::vector<std::optional<core::ComputeOutcome>> outcomes(unique.size());
    std::vector<std::shared_ptr<fault::HealthJournal>> journals(unique.size());
    engine_.parallel_for(unique.size(), [&](std::size_t i) {
      journals[i] = std::make_shared<fault::HealthJournal>();
      core::Accelerator acc = r.acc;
      acc.set_health(journals[i]);
      outcomes[i].emplace(acc.try_compute(*unique[i]));
    });
    for (const auto& journal : journals) journal->replay(*r.board);

    // 3. One response per live request, fanned out from its solve.
    std::vector<QueryResponse> responses;
    responses.reserve(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      const Pending& p = *live[i];
      QueryResponse resp =
          QueryResponse::from(p.id, p.request.tenant, *outcomes[slot_of[i]]);
      resp.replica = r.index;
      responses.push_back(std::move(resp));
    }
    return responses;
  }

  // ---- responses ----

  /// Single delivery point for solved/rejected queue entries: quota
  /// released exactly once, latency recorded for served Ok responses.
  void deliver(Shard& shard, Pending& p, QueryResponse resp) {
    release_quota(p);
    respond(p.conn, resp, p.arrival_s, /*may_block=*/true,
            p.request.deadline_s);
    if (resp.ok()) record_latency(shard, now_s() - p.arrival_s);
  }

  static QueryResponse reject_hint(std::uint64_t id, std::uint64_t tenant,
                                   QueryStatus status, std::string message,
                                   double retry_after_s) {
    QueryResponse resp =
        QueryResponse::reject(id, tenant, status, std::move(message));
    resp.retry_after_s = retry_after_s;
    return resp;
  }

  /// Encode + write one response.  `may_block` follows the calling thread:
  /// shard workers may wait on a slow reader, bounded by min(kWriteBoundS,
  /// the request's remaining deadline); the IO thread must not (see
  /// write_all).  A failed write closes the connection — a peer that
  /// stopped reading must not occupy a max_connections slot forever.
  void respond(const std::shared_ptr<Connection>& conn,
               const QueryResponse& resp, double arrival_s,
               bool may_block = true, double deadline_s = 0.0) {
    static const obs::Counter responses("mda.serve.responses");
    static const obs::Counter rejects("mda.serve.rejects");
    static const obs::Histogram latency("mda.serve.request_latency_s");
    const std::vector<std::uint8_t> frame = encode_response_frame(resp);
    double budget_s = 0.0;
    if (may_block) {
      budget_s = kWriteBoundS;
      if (deadline_s > 0.0 && arrival_s > 0.0) {
        const double remaining = (arrival_s + deadline_s) - now_s();
        budget_s = remaining <= 0.0 ? 0.0 : std::min(budget_s, remaining);
      }
    }
    bool write_failed = false;
    if (conn && conn->alive.load()) {
      std::lock_guard<std::mutex> lk(conn->write_mutex);
      write_failed = !write_all(conn->fd, frame.data(), frame.size(),
                                budget_s);
    }
    if (write_failed) close_connection(conn);
    responses.add();
    n_responses_.fetch_add(1);
    if (!resp.ok()) {
      rejects.add();
      n_rejected_.fetch_add(1);
    }
    if (arrival_s > 0.0) latency.observe(now_s() - arrival_s);
  }

  [[nodiscard]] ServerStats stats() {
    ServerStats s;
    s.connections_accepted = n_connections_.load();
    s.requests = n_requests_.load();
    s.responses = n_responses_.load();
    s.rejected = n_rejected_.load();
    s.collapsed = n_collapsed_.load();
    s.solves = n_solves_.load();
    s.shards = n_shards_.load();  // Monotonic: stop() clears the table.
    s.failovers = n_failovers_.load();
    s.scrubs = n_scrubs_.load();
    s.probes = n_probes_.load();
    return s;
  }
};

Server::Server(ServeOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts))) {}
Server::~Server() = default;

void Server::start() { impl_->start(); }
void Server::stop() { impl_->stop(); }
bool Server::running() const { return impl_->running_.load(); }
std::uint16_t Server::port() const { return impl_->bound_port_; }
const ServeOptions& Server::options() const { return impl_->opts_; }
ServerStats Server::stats() const { return impl_->stats(); }
HealthReport Server::health_report() const { return impl_->health_report(); }
std::size_t Server::force_scrub_scan() { return impl_->scrub_scan(); }
bool Server::kill_replica(std::size_t shard_index, std::uint32_t replica) {
  return impl_->kill_replica(shard_index, replica);
}
bool Server::restart_replica(std::size_t shard_index, std::uint32_t replica) {
  return impl_->restart_replica(shard_index, replica);
}
bool Server::inject_fault_plan(std::size_t shard_index, std::uint32_t replica,
                               std::shared_ptr<const fault::FaultPlan> plan) {
  return impl_->inject_fault_plan(shard_index, replica, std::move(plan));
}
bool Server::scrub_replica(std::size_t shard_index, std::uint32_t replica) {
  return impl_->scrub_replica(shard_index, replica);
}
std::optional<fault::HealthSnapshot> Server::scoreboard(
    std::size_t shard_index, std::uint32_t replica) const {
  return impl_->scoreboard(shard_index, replica);
}

}  // namespace mda::serve
