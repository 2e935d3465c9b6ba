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
#include <cmath>
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
#include "core/scrub.hpp"
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

/// An admitted request waiting in a replica queue.  `gate` appears once the
/// request is hedged: whichever copy flips it first delivers the response,
/// the other drops its result (first-wins cancellation).
struct Pending {
  std::shared_ptr<Connection> conn;
  std::uint64_t id = 0;
  QueryRequest request;
  double arrival_s = 0.0;
  bool counted_inflight = false;
  std::shared_ptr<std::atomic<bool>> gate;
  bool is_hedge = false;  ///< This entry is the hedge copy.
  bool hedged = false;    ///< A hedge copy exists somewhere.
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
  put_bytes(&req.retry_budget, sizeof req.retry_budget);
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
/// Latency ring size per shard (hedge-delay percentile source).
constexpr std::size_t kLatencyRing = 64;

const obs::Gauge& unhealthy_gauge() {
  static const obs::Gauge g("mda.serve.health.unhealthy");
  return g;
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServeOptions opts)
      : opts_(std::move(opts)), scheduler_(scrub_opts(opts_)) {
    if (opts_.coalesce_window == 0) opts_.coalesce_window = 1;
    if (opts_.shard_queue_depth == 0) opts_.shard_queue_depth = 1;
    opts_.replicas = std::clamp<std::size_t>(opts_.replicas, 1, 255);
  }
  ~Impl() { stop(); }

  static core::ScrubOptions scrub_opts(const ServeOptions& o) {
    core::ScrubOptions s;
    s.scan_interval_s =
        o.selfheal.scan_interval_s > 0.0 ? o.selfheal.scan_interval_s : 0.05;
    return s;
  }

  /// One shard replica: its own accelerator (own instance cache — a scrub
  /// invalidation must never touch a sibling), its own health scoreboard,
  /// queue and worker.  `solve_mutex` serialises solves against scrub /
  /// fault-injection / restart, so no query ever observes a half-tuned
  /// array; `admin_mu` serialises state transitions.
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
    std::atomic<std::uint8_t> state{kHealthy};
    std::atomic<bool> down{false};
    std::atomic<bool> solving{false};
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
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::thread io_thread_;

  core::ScrubScheduler scheduler_;
  std::thread hedge_thread_;
  std::mutex hedge_mu_;
  std::condition_variable hedge_cv_;
  bool hedge_stop_ = false;

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
  std::atomic<std::uint64_t> n_hedges_launched_{0};
  std::atomic<std::uint64_t> n_hedges_won_{0};
  std::atomic<std::uint64_t> n_hedges_lost_{0};
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
    if (opts_.selfheal.auto_scrub) scheduler_.start();
    if (opts_.hedge.enabled && opts_.replicas > 1) {
      {
        std::lock_guard<std::mutex> lk(hedge_mu_);
        hedge_stop_ = false;
      }
      hedge_thread_ = std::thread([this] { hedge_loop(); });
    }
  }

  void stop() {
    if (!running_.exchange(false)) return;
    stopping_.store(true);
    // Background machinery first: no scrub may check a replica out and no
    // hedge may enqueue once the workers start their final drain.
    scheduler_.stop();
    scheduler_.clear_targets();
    if (hedge_thread_.joinable()) {
      {
        std::lock_guard<std::mutex> lk(hedge_mu_);
        hedge_stop_ = true;
      }
      hedge_cv_.notify_all();
      hedge_thread_.join();
      hedge_thread_ = std::thread();
    }
    // Wake the IO thread, join it, then drain the shards: their workers see
    // stopping_ and answer anything still queued with ShuttingDown.
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t w = ::write(wake_fd_, &one, sizeof one);
    if (io_thread_.joinable()) io_thread_.join();
    {
      std::lock_guard<std::mutex> lk(shard_mutex_);
      for (auto& [key, shard] : shards_) {
        for (auto& r : shard->replicas) r->cv.notify_all();
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
            if (p.is_hedge) continue;  // Its primary answers (or answered).
            release_quota(p);
            if (p.gate && p.gate->exchange(true)) continue;
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
    Pending pending{conn, dec->id, std::move(dec->request), arrival, false,
                    nullptr, false, false};
    // Saturate the wire-controlled retry budget at admission (before the
    // collapse key is formed, so clamped duplicates still collapse): the
    // worker retry loop is bounded by configuration, not by the peer.
    pending.request.retry_budget =
        std::min(pending.request.retry_budget, opts_.max_retry_budget);
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
      register_scrub_target(raw, rp);
    }
    shards_.emplace(key, std::move(shard));
    n_shards_.fetch_add(1);
    static const obs::Gauge shard_gauge("mda.serve.shards");
    shard_gauge.set(static_cast<double>(shards_.size()));
    return raw;
  }

  void register_scrub_target(Shard* s, Replica* r) {
    core::ScrubTarget t;
    t.name = "shard" + std::to_string(n_shards_.load()) + "/r" +
             std::to_string(r->index);
    t.unhealthy_threshold = opts_.selfheal.health.unhealthy_threshold;
    t.healthy_threshold = opts_.selfheal.health.healthy_threshold;
    t.score = [r] { return r->board->expected_error(); };
    t.idle = [r] {
      {
        std::lock_guard<std::mutex> lk(r->mutex);
        if (!r->queue.empty()) return false;
      }
      return !r->solving.load();
    };
    t.scrub = [this, s, r] { return do_scrub(*s, *r); };
    if (opts_.selfheal.probe_len > 0) {
      t.probe = [this, r] { probe_replica(*r); };
    }
    scheduler_.add_target(std::move(t));
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
      if (r.down.load()) return Enq::Full;  // Killer drained; route on.
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

  /// First routable sibling of `self` (hedge target / failover home).
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

  /// The scheduler's per-scan probe hook: only when the replica is serving
  /// and idle (try_lock — a probe must never delay traffic).
  void probe_replica(Replica& r) {
    if (opts_.selfheal.probe_len == 0) return;
    const std::uint8_t st = r.state.load();
    if (st == kScrubbing || st == kDown) return;
    {
      std::unique_lock<std::mutex> solve_lk(r.solve_mutex, std::try_to_lock);
      if (!solve_lk.owns_lock()) return;
      {
        std::lock_guard<std::mutex> lk(r.mutex);
        if (!r.queue.empty()) return;
      }
      run_probe(r);
    }
    refresh_state(r);  // After solve_mutex is released (lock order).
  }

  /// Check the replica out, re-run program-and-verify, re-probe, return it.
  /// Queries can never observe a half-tuned array: admission stops routing
  /// here the moment the state flips, requests already queued wait on
  /// solve_mutex, and retune() bumps the instance-cache generation so any
  /// lease handed out earlier is dropped on give-back instead of reused.
  bool do_scrub(Shard& shard, Replica& r) {
    (void)shard;
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

  // ---- hedging ----

  void hedge_won() {
    static const obs::Counter wins("mda.serve.hedge.wins");
    wins.add();
    n_hedges_won_.fetch_add(1);
  }
  void hedge_lost() {
    static const obs::Counter losses("mda.serve.hedge.losses");
    losses.add();
    n_hedges_lost_.fetch_add(1);
  }

  double hedge_delay(Shard& shard) {
    std::lock_guard<std::mutex> lk(shard.lat_mu);
    if (shard.latencies.size() < 16) return opts_.hedge.min_delay_s;
    std::vector<double> v = shard.latencies;
    const double pct = std::clamp(opts_.hedge.percentile, 0.0, 1.0);
    const std::size_t idx = std::min(
        v.size() - 1,
        static_cast<std::size_t>(pct * static_cast<double>(v.size() - 1)));
    std::nth_element(v.begin(),
                     v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
    return std::max(opts_.hedge.min_delay_s, v[idx]);
  }

  void hedge_loop() {
    std::unique_lock<std::mutex> lk(hedge_mu_);
    for (;;) {
      hedge_cv_.wait_for(
          lk, std::chrono::duration<double>(opts_.hedge.poll_interval_s),
          [this] { return hedge_stop_; });
      if (hedge_stop_) return;
      lk.unlock();
      hedge_scan();
      lk.lock();
    }
  }

  /// Scan every replica queue for requests older than the shard's hedge
  /// delay and enqueue a first-wins copy on a sibling.  The copy shares the
  /// primary's cancellation gate and never carries quota (counted once).
  void hedge_scan() {
    static const obs::Counter launched("mda.serve.hedge.launched");
    std::vector<Shard*> shards;
    {
      std::lock_guard<std::mutex> lk(shard_mutex_);
      for (auto& [key, s] : shards_) {
        if (s->replicas.size() > 1) shards.push_back(s.get());
      }
    }
    const double now = now_s();
    for (Shard* s : shards) {
      const double delay = hedge_delay(*s);
      for (auto& rp : s->replicas) {
        Replica* r = rp.get();
        std::vector<Pending> copies;
        {
          std::lock_guard<std::mutex> lk(r->mutex);
          for (Pending& p : r->queue) {
            if (p.is_hedge || p.hedged) continue;
            if (p.gate && p.gate->load()) continue;
            if (now - p.arrival_s < delay) continue;
            p.hedged = true;
            if (!p.gate) p.gate = std::make_shared<std::atomic<bool>>(false);
            Pending copy;
            copy.conn = p.conn;
            copy.id = p.id;
            copy.request = p.request;  // Shares owned payload buffers.
            copy.arrival_s = p.arrival_s;
            copy.counted_inflight = false;
            copy.gate = p.gate;
            copy.is_hedge = true;
            copy.hedged = true;
            copies.push_back(std::move(copy));
          }
        }
        for (Pending& copy : copies) {
          Replica* sibling = pick_sibling(*s, r);
          if (sibling == nullptr) continue;  // Primary still answers.
          if (try_enqueue(*sibling, copy) == Enq::Ok) {
            launched.add();
            n_hedges_launched_.fetch_add(1);
          }
        }
      }
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
      r->down.store(true);
    }
    r->cv.notify_all();
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
      if (p.is_hedge) {
        hedge_lost();
        continue;  // Its primary still answers.
      }
      Replica* sibling = pick_sibling(*s, r);
      if (sibling != nullptr && try_enqueue(*sibling, p) == Enq::Ok) {
        failovers.add();
        n_failovers_.fetch_add(1);
        continue;
      }
      release_quota(p);
      if (p.gate && p.gate->exchange(true)) continue;
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
      r->down.store(false);
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
    auto [s, r] = addr(shard_index, replica);
    if (r == nullptr) return false;
    return do_scrub(*s, *r);
  }

  [[nodiscard]] HealthReport health_report() {
    HealthReport rep;
    rep.hedges_launched = n_hedges_launched_.load();
    rep.hedges_won = n_hedges_won_.load();
    rep.hedges_lost = n_hedges_lost_.load();
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
    for (;;) {
      std::vector<Pending> batch;
      {
        std::unique_lock<std::mutex> lk(r.mutex);
        r.cv.wait(lk, [&] {
          return stopping_.load() || r.down.load() || !r.queue.empty();
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
        if (r.down.load()) return;  // Killer drains the queue.
        const std::size_t take =
            std::min(opts_.coalesce_window, r.queue.size());
        batch.assign(
            std::make_move_iterator(r.queue.begin()),
            std::make_move_iterator(r.queue.begin() +
                                    static_cast<std::ptrdiff_t>(take)));
        r.queue.erase(r.queue.begin(),
                      r.queue.begin() + static_cast<std::ptrdiff_t>(take));
      }
      {
        std::lock_guard<std::mutex> solve_lk(r.solve_mutex);
        r.solving.store(true);
        process_batch(shard, r, batch);
        r.solving.store(false);
      }
      refresh_state(r);  // After solve_mutex is released (lock order).
    }
  }

  void process_batch(Shard& shard, Replica& r, std::vector<Pending>& batch) {
    static const obs::Counter collapsed("mda.serve.collapsed_requests");
    static const obs::Counter solves("mda.serve.solves");
    static const obs::Counter windows("mda.serve.windows");
    windows.add();

    // 1. Expire deadlines at dequeue: queue wait already exceeded the
    //    request's relative deadline, so a solve would be wasted work.
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
    if (live.empty()) return;

    // 2. Collapse bitwise-identical requests within the window: one solve,
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

    // 3. Solve each unique request through the same try_compute entry point
    //    BatchEngine uses, so served ≡ direct is structural.
    solves.add(static_cast<std::uint64_t>(unique.size()));
    n_solves_.fetch_add(unique.size());
    std::vector<core::ComputeOutcome> outcomes;
    outcomes.reserve(unique.size());
    for (const QueryRequest* req : unique) {
      outcomes.push_back(apply_retries(r, *req, r.acc.try_compute(*req)));
    }

    // 4. Fan responses out to their sockets (through the hedge gate).
    for (std::size_t i = 0; i < live.size(); ++i) {
      Pending& p = *live[i];
      QueryResponse resp =
          QueryResponse::from(p.id, p.request.tenant, outcomes[slot_of[i]]);
      resp.replica = r.index;
      deliver(shard, p, std::move(resp));
    }
  }

  core::ComputeOutcome apply_retries(Replica& r, const QueryRequest& req,
                                     core::ComputeOutcome outcome) {
    // retry_budget was saturated to opts_.max_retry_budget at admission; the
    // stopping_ check keeps a failing-solve retry run from delaying stop().
    for (std::uint32_t i = 0;
         i < req.retry_budget && !stopping_.load() && !outcome.ok() &&
         outcome.error().code == core::ComputeErrorCode::BackendFailure;
         ++i) {
      static const obs::Counter retries("mda.serve.retries");
      retries.add();
      n_solves_.fetch_add(1);
      outcome = r.acc.try_compute(req);
    }
    return outcome;
  }

  // ---- responses ----

  /// Single delivery point for solved/rejected queue entries: first-wins
  /// when a hedge gate exists, quota released exactly once (the primary's
  /// entry carries it), latency recorded for served Ok responses.  A hedge
  /// copy never delivers a rejection — its primary still answers.
  void deliver(Shard& shard, Pending& p, QueryResponse resp) {
    if (p.is_hedge) {
      if (!resp.ok() || p.gate->exchange(true)) {
        hedge_lost();
        return;
      }
      hedge_won();
      respond(p.conn, resp, p.arrival_s, /*may_block=*/true,
              p.request.deadline_s);
      record_latency(shard, now_s() - p.arrival_s);
      return;
    }
    release_quota(p);
    if (p.gate && p.gate->exchange(true)) return;  // The hedge answered.
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
    s.hedges_launched = n_hedges_launched_.load();
    s.hedges_won = n_hedges_won_.load();
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
std::size_t Server::force_scrub_scan() {
  return impl_->scheduler_.force_scan();
}
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

}  // namespace mda::serve
