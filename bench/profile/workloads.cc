#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string_view>
#include <thread>
#include <utility>

#include "obs/trace.h"
#include "workload/synthetic_table.h"

namespace prkb::bench::profile {
namespace {

using edbms::AttrId;
using edbms::CompareOp;
using edbms::TupleId;
using edbms::Value;

/// Inserted rows take values above the initial domain [1, 30M], like
/// timestamps: the newest keys are the largest. Selections use pool
/// constants inside the initial domain with `<` and BETWEEN only, so no
/// inserted row ever satisfies one and every answer equals the static
/// oracle exactly, under concurrency.
constexpr Value kInsertLo = 30'000'001;
constexpr Value kInsertHi = 31'000'000;

/// write-mixed-durable's operation pattern, one letter per op, repeated:
/// 40% Inserts, 5% Deletes, 10% Repeats, 25% fresh `<` (Less) and 20% fresh
/// BETWEEN. A fixed pattern, not a per-op draw, so every run has exactly
/// this mix.
constexpr std::string_view kWriteMixPattern = "ILIBIRILIBDLIBIRILBL";

/// repeat-hot-local's popularity order is fixed, not seeded: rank r is the
/// same chain quantile under every seed, so the hot answers' sizes (which
/// set the cache-hit latency) do not change with the seed.
constexpr uint64_t kHotOrderSeed = 0x40757E;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  return seed * 0x9E3779B97F4A7C15ULL + salt * 0xD1B54A32D192ED03ULL + 1;
}

size_t PickIndex(Rng* rng, size_t n) {
  return static_cast<size_t>(rng->UniformInt(0, n - 1));
}

/// BETWEEN ends for pool index i: pool[i] and the constant P/8 positions
/// away (further on, or back when that would run off the pool), in
/// ascending order. A BETWEEN's cost depends on how many partitions it
/// spans, so every span is 1/8 of the chain and a pass over every i costs
/// the same under every seed.
std::pair<Value, Value> BetweenEnds(const std::vector<Value>& pool, size_t i) {
  const size_t w = std::max<size_t>(1, pool.size() / 8);
  const size_t j = i + w < pool.size() ? i + w : i - w;
  return {pool[std::min(i, j)], pool[std::max(i, j)]};
}

size_t ZipfRank(const std::vector<double>& cdf, Rng* rng) {
  const double u = rng->UniformDouble();
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return std::min(static_cast<size_t>(it - cdf.begin()), cdf.size() - 1);
}

}  // namespace

bool ShapeFor(const std::string& name, bool smoke, Shape* out) {
  Shape s;
  if (name == "sql-scan-local") {
    s.id = WorkloadId::kSqlScanLocal;
    s.rows = 200'000;
    s.attrs = 2;
    s.pool = 256;
    s.clients = 1;
  } else if (name == "serve-remote-rtt") {
    s.id = WorkloadId::kServeRemoteRtt;
    s.rows = 50'000;
    s.attrs = 4;
    s.pool = 512;
    s.clients = 4;
    s.tmlat_ns = 300'000;
    s.closed_share = 0.4;
  } else if (name == "write-mixed-durable") {
    s.id = WorkloadId::kWriteMixedDurable;
    s.rows = 50'000;
    s.attrs = 4;
    s.pool = 256;
    s.clients = 4;
  } else if (name == "repeat-hot-local") {
    s.id = WorkloadId::kRepeatHotLocal;
    s.rows = 50'000;
    s.attrs = 2;
    s.pool = 1024;
    s.clients = 4;
    s.tmlat_ns = 300'000;
  } else {
    return false;
  }
  if (smoke) {
    s.rows = 2'000;
    s.pool = 16;
  }
  // Three passes of `<` constants, one of BETWEEN ends and conjunctions.
  if (s.id == WorkloadId::kSqlScanLocal) s.count_window_ops = 5 * s.pool;
  *out = s;
  return true;
}

Inputs::Inputs(const Shape& shape_in, uint64_t seed_in)
    : shape(shape_in),
      seed(seed_in),
      plain([&] {
        workload::SyntheticSpec spec;
        spec.rows = shape_in.rows;
        spec.attrs = shape_in.attrs;
        spec.seed = Mix(seed_in, 1);
        return workload::MakeSyntheticTable(spec);
      }()),
      oracle(plain) {
  Rng rng(Mix(seed, 2));
  pool.resize(shape.attrs);
  warm_order.resize(shape.attrs);
  for (AttrId a = 0; a < shape.attrs; ++a) {
    pool[a] = oracle.PoolConstants(a, shape.pool, &rng);
    for (size_t i = 0; i < pool[a].size(); ++i) warm_order[a].push_back(i);
    rng.Shuffle(&warm_order[a]);
  }
  for (size_t i = 0; i < shape.pool; ++i) hot_index.push_back(i);
  Rng hot(kHotOrderSeed);
  hot.Shuffle(&hot_index);
  double total = 0;
  zipf_cdf.resize(shape.pool);
  for (size_t r = 0; r < shape.pool; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    zipf_cdf[r] = total;
  }
  for (double& c : zipf_cdf) c /= total;

  if (shape.id == WorkloadId::kSqlScanLocal &&
      pool[0].size() == pool[1].size()) {
    // One conjunction per c0 constant, paired with the c1 constant half the
    // pool further on. Like BETWEEN spans, the pairing is fixed so that a
    // pass over all conjunctions has the same selectivities — and so the
    // same cost — under every seed.
    const size_t n = pool[0].size();
    for (size_t i = 0; i < n; ++i) {
      Pair p;
      p.a = i;
      p.b = (i + n / 2) % n;
      const Value x = pool[0][p.a];
      const Value y = pool[1][p.b];
      std::vector<TupleId> winners;
      for (TupleId tid = 0; tid < plain.num_rows(); ++tid) {
        if (plain.at(0, tid) < x && plain.at(1, tid) > y) {
          winners.push_back(tid);
        }
      }
      p.answer = Answer{winners.size(), HashRows(winners)};
      pairs.push_back(p);
    }
  }
}

Result<std::unique_ptr<Deployment>> Deployment::Create(
    const Inputs& in, const std::string& workdir) {
  std::unique_ptr<Deployment> d(new Deployment(in));
  const Status st = d->Build(workdir);
  if (!st.ok()) return st;
  return d;
}

Deployment::~Deployment() {
  // The WAL closes with the index; only then may its directory go.
  cindex_.reset();
  if (!wal_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(wal_dir_, ec);
  }
}

Status Deployment::Build(const std::string& workdir) {
  const Shape& s = in_.shape;
  db_ = std::make_unique<edbms::CipherbaseEdbms>(
      edbms::CipherbaseEdbms::FromPlainTable(Mix(in_.seed, 3), in_.plain));
  front_ = db_.get();
  if (s.id == WorkloadId::kServeRemoteRtt) {
    net::QpfServerOptions sopts;
    // One TM device: the serial resource that round trips queue on.
    sopts.workers = 1;
    server_ = std::make_unique<net::QpfServer>(db_.get(), sopts);
    const Status st = server_->ServeTcp(0);
    if (!st.ok()) return st;
    auto conn = net::QpfClient::ConnectTcp("127.0.0.1", server_->port());
    if (!conn.ok()) return conn.status();
    client_ = std::move(conn).value();
    remote_ = std::make_unique<net::RemoteEdbms>(db_.get(), client_.get());
    bus_ = std::make_unique<net::CoalescedEdbms>(remote_.get());
    front_ = bus_.get();
  }

  core::PrkbOptions options;
  options.seed = Mix(in_.seed, 4);
  // Serving configuration: scans ride 256-tuple batched round trips.
  options.batch_size = 256;
  if (s.id == WorkloadId::kServeRemoteRtt) {
    options.rt_latency_hint_ns = static_cast<double>(s.tmlat_ns);
  }
  options.buffered_inserts = s.id == WorkloadId::kWriteMixedDurable;
  if (s.id == WorkloadId::kSqlScanLocal) {
    index_ = std::make_unique<core::PrkbIndex>(front_, options);
    std::vector<std::string> columns;
    for (size_t a = 0; a < s.attrs; ++a) {
      columns.emplace_back(1, 'c');
      columns.back() += std::to_string(a);
    }
    catalog_.RegisterTable("t", columns);
    planner_ =
        std::make_unique<query::Planner>(&catalog_, front_, index_.get());
    for (AttrId a = 0; a < s.attrs; ++a) index_->EnableAttr(a);
  } else {
    cindex_ = std::make_unique<core::ConcurrentPrkbIndex>(front_, options);
    for (AttrId a = 0; a < s.attrs; ++a) cindex_->EnableAttr(a);
  }
  live_rows_ = s.rows;
  live_inserts_.resize(s.clients);
  deleted_.resize(s.clients);
  // Bags per client: sql-scan-local draws `<` constants, BETWEEN ends and
  // conjunctions; serve-remote-rtt fresh and repeated constants of its
  // attribute; the others one bag per attribute.
  const size_t pool_n = in_.pool[0].size();
  std::vector<Bag> bags;
  switch (s.id) {
    case WorkloadId::kSqlScanLocal:
      bags = {Bag(pool_n), Bag(pool_n), Bag(in_.pairs.size())};
      break;
    case WorkloadId::kServeRemoteRtt:
      bags = {Bag(pool_n), Bag(pool_n)};
      break;
    default:
      bags.assign(s.attrs, Bag(pool_n));
      break;
  }
  clients_.assign(s.clients, ClientState{0, bags});
  explain_ = ClientState{0, bags};

  const Status warmed = Warm();
  if (!warmed.ok()) return warmed;

  if (s.id == WorkloadId::kWriteMixedDurable) {
    static std::atomic<uint64_t> next_dir{0};
    wal_dir_ = workdir + "/bench_profile_wal." + std::to_string(getpid()) +
               "." + std::to_string(next_dir++);
    std::error_code ec;
    std::filesystem::remove_all(wal_dir_, ec);
    core::WalOptions wopts;
    wopts.fsync_on_commit = true;
    const Status st = cindex_->OpenWal(wal_dir_, wopts);
    if (!st.ok()) return st;
  }
  db_->trusted_machine().set_call_latency_ns(s.tmlat_ns);
  if (bus_ != nullptr) bus_->CalibrateTransport(s.tmlat_ns);
  return Status::Ok();
}

std::vector<TupleId> Deployment::SelectOne(const edbms::Trapdoor& td) {
  return index_ != nullptr ? index_->Select(td) : cindex_->Select(td);
}

Status Deployment::Warm() {
  const Shape& s = in_.shape;
  warm_.assign(s.attrs, {});
  std::vector<Status> status(s.attrs);
  const auto warm_attr = [&](AttrId a) {
    warm_[a].resize(in_.pool[a].size());
    for (const size_t i : in_.warm_order[a]) {
      edbms::Trapdoor td;
      {
        const std::lock_guard<std::mutex> lock(do_mu_);
        td = front_->MakeComparison(a, CompareOp::kLt, in_.pool[a][i]);
      }
      const size_t got = SelectOne(td).size();
      if (got != in_.oracle.Less(a, in_.pool[a][i]).count) {
        status[a] = Status::Internal("warm-up answer mismatch on attribute " +
                                     std::to_string(a));
        return;
      }
      warm_[a][i] = std::move(td);
    }
  };
  if (cindex_ != nullptr) {
    // Attributes warm in parallel: each chain sees its own fixed order.
    std::vector<std::thread> threads;
    for (AttrId a = 0; a < s.attrs; ++a) threads.emplace_back(warm_attr, a);
    for (std::thread& t : threads) t.join();
  } else {
    for (AttrId a = 0; a < s.attrs; ++a) warm_attr(a);
  }
  for (const Status& st : status) {
    if (!st.ok()) return st;
  }
  return front_->Health();
}

void Deployment::DrawStatement(ClientState* cs, Rng* rng, Op* op) const {
  const auto& p0 = in_.pool[0];
  const auto& p1 = in_.pool[1];
  switch (cs->seq++ % 5) {
    case 3: {
      const auto [lo, hi] = BetweenEnds(p1, cs->bags[1].Next(rng));
      op->sql = "SELECT * FROM t WHERE c1 BETWEEN " + std::to_string(lo) +
                " AND " + std::to_string(hi);
      op->expect = in_.oracle.Range(1, lo, hi);
      break;
    }
    case 4: {
      const Inputs::Pair& pair = in_.pairs[cs->bags[2].Next(rng)];
      op->sql = "SELECT * FROM t WHERE c0 < " + std::to_string(p0[pair.a]) +
                " AND c1 > " + std::to_string(p1[pair.b]);
      op->expect = pair.answer;
      break;
    }
    default: {
      const Value x = p0[cs->bags[0].Next(rng)];
      op->sql = "SELECT * FROM t WHERE c0 < " + std::to_string(x);
      op->expect = in_.oracle.Less(0, x);
      break;
    }
  }
}

void Deployment::DrawComparison(AttrId attr, size_t idx, bool repeat,
                                Op* op) {
  op->attr = attr;
  op->pool_idx = idx;
  op->repeat = repeat;
  op->expect = in_.oracle.Less(attr, in_.pool[attr][idx]);
  if (!repeat) {
    const std::lock_guard<std::mutex> lock(do_mu_);
    op->fresh = front_->MakeComparison(attr, CompareOp::kLt,
                                       in_.pool[attr][idx]);
  }
}

Op Deployment::Next(size_t client, Rng* rng) {
  const Shape& s = in_.shape;
  ClientState& cs = clients_[client];
  Op op;
  op.check_hash = rng->UniformInt(0, 7) == 0;
  switch (s.id) {
    case WorkloadId::kSqlScanLocal:
      DrawStatement(&cs, rng, &op);
      break;
    case WorkloadId::kServeRemoteRtt: {
      // Thread t owns attribute t: 80% fresh, 20% byte-identical re-sends.
      const AttrId attr = static_cast<AttrId>(client % s.attrs);
      const bool repeat = cs.seq++ % 5 == 4;
      DrawComparison(attr, cs.bags[repeat ? 1 : 0].Next(rng), repeat, &op);
      break;
    }
    case WorkloadId::kWriteMixedDurable: {
      const char kind = kWriteMixPattern[cs.seq % kWriteMixPattern.size()];
      const AttrId attr = static_cast<AttrId>((client + cs.seq) % s.attrs);
      ++cs.seq;
      std::vector<TupleId>& mine = live_inserts_[client];
      Bag& bag = cs.bags[attr];
      if (kind == 'D' && !mine.empty()) {
        // Delete one of this client's own earlier inserts.
        op.kind = OpKind::kDelete;
        const size_t k = PickIndex(rng, mine.size());
        op.tid = mine[k];
        mine[k] = mine.back();
        mine.pop_back();
      } else if (kind == 'I' || kind == 'D') {
        op.kind = OpKind::kInsert;
        for (size_t a = 0; a < s.attrs; ++a) {
          op.row.push_back(rng->UniformInt64(kInsertLo, kInsertHi));
        }
      } else if (kind == 'B') {
        const auto [lo, hi] = BetweenEnds(in_.pool[attr], bag.Next(rng));
        op.attr = attr;
        op.expect = in_.oracle.Range(attr, lo, hi);
        const std::lock_guard<std::mutex> lock(do_mu_);
        op.fresh = front_->MakeBetween(attr, lo, hi);
      } else {
        DrawComparison(attr, bag.Next(rng), kind == 'R', &op);
      }
      break;
    }
    case WorkloadId::kRepeatHotLocal: {
      // Two clients per attribute: 95% Zipf repeats, 5% fresh.
      const AttrId attr = static_cast<AttrId>(client % s.attrs);
      if (cs.seq++ % 20 == 19) {
        DrawComparison(attr, cs.bags[0].Next(rng), false, &op);
      } else {
        const size_t rank = ZipfRank(in_.zipf_cdf, rng);
        DrawComparison(attr, in_.hot_index[rank], true, &op);
      }
      break;
    }
  }
  return op;
}

Status Deployment::Run(size_t client, const Op& op,
                       std::vector<TupleId>* rows) {
  switch (op.kind) {
    case OpKind::kSelect: {
      const obs::ObsTracer::Span span("bench.select");
      if (planner_ != nullptr) {
        Result<query::ExecutionResult> r = planner_->ExecuteSql(op.sql);
        if (!r.ok()) return r.status();
        *rows = std::move(r->rows);
        return Status::Ok();
      }
      *rows = cindex_->Select(op.repeat ? warm_[op.attr][op.pool_idx]
                                        : op.fresh);
      // A broken channel answers fail-closed (all false); surface it.
      return front_->Health();
    }
    case OpKind::kInsert: {
      const obs::ObsTracer::Span span("bench.insert");
      TupleId tid;
      {
        const std::lock_guard<std::mutex> lock(do_mu_);
        tid = cindex_->Insert(op.row);
      }
      live_inserts_[client].push_back(tid);
      ++live_rows_;
      return Status::Ok();
    }
    case OpKind::kDelete: {
      const obs::ObsTracer::Span span("bench.delete");
      cindex_->Delete(op.tid);
      deleted_[client].push_back(op.tid);
      --live_rows_;
      return Status::Ok();
    }
  }
  return Status::Internal("unknown op kind");
}

Status Deployment::Explain(Rng* rng) {
  Op op;
  DrawStatement(&explain_, rng, &op);
  const obs::ObsTracer::Span span("bench.explain");
  Result<query::ExecutionResult> r = planner_->ExecuteSql("EXPLAIN " + op.sql);
  return r.ok() ? Status::Ok() : r.status();
}

size_t Deployment::LostWrites() const {
  size_t lost = 0;
  for (const auto& tids : live_inserts_) {
    for (const TupleId tid : tids) lost += front_->IsLive(tid) ? 0 : 1;
  }
  for (const auto& tids : deleted_) {
    for (const TupleId tid : tids) lost += front_->IsLive(tid) ? 1 : 0;
  }
  return lost;
}

size_t Deployment::IndexBytes() const {
  return index_ != nullptr ? index_->SizeBytes() : cindex_->SizeBytes();
}

}  // namespace prkb::bench::profile
