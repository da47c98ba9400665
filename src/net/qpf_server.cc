#include "net/qpf_server.h"

#include <utility>

#include "obs/metrics.h"

namespace prkb::net {

QpfServer::QpfServer(edbms::QpfOracle* oracle, QpfServerOptions opts)
    : oracle_(oracle), opts_(opts) {
  if (opts_.workers < 1) opts_.workers = 1;
  if (opts_.max_queue < opts_.workers) opts_.max_queue = opts_.workers;
}

QpfServer::~QpfServer() { Stop(); }

Status QpfServer::ServeTcp(uint16_t port) {
  auto listener = Listener::ListenTcp(port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  Start();
  return Status::Ok();
}

Status QpfServer::ServeUnix(const std::string& path) {
  auto listener = Listener::ListenUnix(path);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  Start();
  return Status::Ok();
}

void QpfServer::Start() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = false;
    started_ = true;
  }
  for (size_t i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
}

void QpfServer::Stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  listener_.Close();
  {
    // Severing the sockets wakes every reader blocked in Recv.
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& conn : conns_) conn->ch.Shutdown();
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  std::vector<std::unique_ptr<Conn>> conns;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_.clear();
    started_ = false;
  }
}

void QpfServer::AcceptLoop() {
  while (true) {
    auto ch = listener_.Accept();
    if (!ch.ok()) return;  // listener closed: shutting down
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    conns_.push_back(std::make_unique<Conn>());
    Conn* conn = conns_.back().get();
    conn->ch = std::move(ch).value();
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
  }
}

void QpfServer::ReaderLoop(Conn* conn) {
  while (true) {
    Frame frame;
    const Status s = conn->ch.Recv(&frame);
    if (!s.ok()) {
      // EOF / shutdown ends the connection; a malformed header additionally
      // severs it (framing is lost — nothing after a bad header can be
      // trusted). Either way: clean exit, no crash.
      if (s.code() == Status::Code::kCorruption) {
        const Frame err{MsgType::kErrorResp, 0, EncodeErrorResp(s)};
        (void)conn->ch.Send(err);
        conn->ch.Shutdown();
      }
      return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    space_cv_.wait(lock, [this] {
      return stopping_ || queue_.size() < opts_.max_queue;
    });
    if (stopping_) return;
    queue_.push_back(Work{conn, std::move(frame)});
    lock.unlock();
    work_cv_.notify_one();
  }
}

void QpfServer::WorkerLoop() {
  while (true) {
    Work work;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      work = std::move(queue_.front());
      queue_.pop_front();
    }
    space_cv_.notify_one();
    Handle(work.conn, std::move(work.frame));
  }
}

void QpfServer::Handle(Conn* conn, Frame&& req) {
  frames_served_.fetch_add(1, std::memory_order_relaxed);
  switch (req.type) {
    case MsgType::kEvalManyReq: {
      ManyReq many;
      const Status s = DecodeEvalManyReq(req.payload, &many);
      if (!s.ok()) {
        Reply(conn, req.corr, MsgType::kErrorResp, EncodeErrorResp(s));
        return;
      }
      std::vector<edbms::ProbeRequest> reqs;
      reqs.reserve(many.items.size());
      for (const auto& item : many.items) {
        reqs.push_back(
            edbms::ProbeRequest{&many.tds[item.td_index], item.tid});
      }
      const BitVector bits = oracle_->ServeEvalMany(reqs);
      Reply(conn, req.corr, MsgType::kResultResp, EncodeResultResp(bits));
      return;
    }
    case MsgType::kPingReq:
      Reply(conn, req.corr, MsgType::kPongResp, {});
      return;
    case MsgType::kStatsReq: {
      // Counter snapshot of the serving process, for remote observability
      // (prkb_shell's .cache over a live connection). Touch the canonical
      // families first so qpf.*/net.* appear even before their first event.
      (void)edbms::QpfMetrics::Get();
      (void)NetMetrics::Get();
      const obs::MetricsSnapshot snap =
          obs::MetricsRegistry::Global().Snapshot();
      std::vector<StatsEntry> entries;
      entries.reserve(snap.counters.size());
      for (const auto& [name, value] : snap.counters) {
        entries.emplace_back(name, value);
      }
      Reply(conn, req.corr, MsgType::kStatsResp, EncodeStatsResp(entries));
      return;
    }
    default:
      // A response type arriving at the server is a confused client; answer
      // with an error so its completion queue can fail the correlation id.
      NetMetrics::Get().errors->Add(1);
      Reply(conn, req.corr, MsgType::kErrorResp,
            EncodeErrorResp(Status::InvalidArgument(
                "unexpected frame type at server")));
      return;
  }
}

void QpfServer::Reply(Conn* conn, uint64_t corr, MsgType type,
                      std::vector<uint8_t> payload) {
  Frame resp;
  resp.type = type;
  resp.corr = corr;
  resp.payload = std::move(payload);
  if (!conn->ch.Send(resp).ok()) {
    // Peer is gone; its reader thread will notice on the next Recv.
    NetMetrics::Get().errors->Add(1);
  }
}

}  // namespace prkb::net
