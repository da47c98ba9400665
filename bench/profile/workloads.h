#ifndef PRKB_BENCH_PROFILE_WORKLOADS_H_
#define PRKB_BENCH_PROFILE_WORKLOADS_H_

// The four workloads: what the seed generates (Inputs), how the system under
// test is built and warmed (Deployment::Create, the part setup_s times), and
// how each client draws and runs its operations.
//
// Public-API contract: the system is driven only through entry points that
// the planned refactors keep — Planner::ExecuteSql; PrkbIndex and
// ConcurrentPrkbIndex (Select, Insert, Delete, OpenWal, SizeBytes);
// QpfServer, QpfClient::ConnectTcp, RemoteEdbms, CoalescedEdbms;
// CipherbaseEdbms::FromPlainTable with its data-owner MakeComparison,
// MakeBetween and Insert; MetricsRegistry and ObsTracer. Nothing here
// subclasses QpfOracle or calls its Eval*/Serve* surface.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "edbms/cipherbase_qpf.h"
#include "net/coalesce.h"
#include "net/qpf_client.h"
#include "net/qpf_server.h"
#include "oracle.h"
#include "prkb/concurrent.h"
#include "prkb/selection.h"
#include "query/planner.h"

namespace prkb::bench::profile {

enum class WorkloadId {
  kSqlScanLocal,
  kServeRemoteRtt,
  kWriteMixedDurable,
  kRepeatHotLocal,
};

/// Sizing and deployment of one workload.
struct Shape {
  WorkloadId id = WorkloadId::kSqlScanLocal;
  size_t rows = 0;
  size_t attrs = 0;
  /// Comparison constants per attribute; the warm chain has pool + 1
  /// partitions per attribute for the whole measured phase.
  size_t pool = 0;
  size_t clients = 1;
  /// TM latency during the measured phase; set-up always runs at 0.
  uint64_t tmlat_ns = 0;
  /// Share of the measured time serve-remote-rtt runs closed-loop; the
  /// rest is the open-loop phase. 1 = closed loop only.
  double closed_share = 1.0;
  /// Single client: the measured phase runs at least this many ops, and
  /// QPF uses and round trips per selection are counted over exactly them
  /// (whole passes of the op pattern), so they repeat for a seed.
  uint64_t count_window_ops = 0;
};

/// Returns false for an unknown name.
bool ShapeFor(const std::string& name, bool smoke, Shape* out);

/// Everything the seed generates. The program under test sees only the
/// table (encrypted at set-up) and trapdoors sealed from these constants.
struct Inputs {
  Inputs(const Shape& shape, uint64_t seed);

  Shape shape;
  uint64_t seed;
  edbms::PlainTable plain;
  Oracle oracle;
  /// [attr] ascending constants that equal no stored value.
  std::vector<std::vector<edbms::Value>> pool;
  /// [attr] pool indices in the order set-up answers them.
  std::vector<std::vector<size_t>> warm_order;
  /// sql-scan-local's conjunctions `c0 < pool[0][a] AND c1 > pool[1][b]`,
  /// answered by a full plaintext scan here rather than in the timed loop.
  struct Pair {
    size_t a = 0;
    size_t b = 0;
    Answer answer;
  };
  std::vector<Pair> pairs;
  /// Zipf(1.0) CDF over pool ranks, and rank -> pool index.
  std::vector<double> zipf_cdf;
  std::vector<size_t> hot_index;
};

/// Draws indices [0, n) in passes: each index once per pass, in a fresh
/// seeded order. An average over whole passes then does not depend on which
/// indices independent draws would have favoured, so per-op cost stays the
/// same from seed to seed.
class Bag {
 public:
  explicit Bag(size_t n) : order_(n), pos_(n) {
    for (size_t i = 0; i < n; ++i) order_[i] = i;
  }
  size_t Next(Rng* rng) {
    if (pos_ == order_.size()) {
      rng->Shuffle(&order_);
      pos_ = 0;
    }
    return order_[pos_++];
  }

 private:
  std::vector<size_t> order_;
  size_t pos_;
};

enum class OpKind : uint8_t { kSelect, kInsert, kDelete };

/// One client operation, fully drawn (and any fresh trapdoor sealed) before
/// the timed window opens.
struct Op {
  OpKind kind = OpKind::kSelect;
  /// The seeded 1-in-8 sample whose winners are hashed, not only counted.
  bool check_hash = false;
  Answer expect;
  /// SQL workloads: the statement (its trapdoors are sealed by the planner).
  std::string sql;
  edbms::AttrId attr = 0;
  size_t pool_idx = 0;
  /// Re-send of set-up trapdoor [attr][pool_idx], byte-identical.
  bool repeat = false;
  /// Freshly sealed trapdoor (new nonce: misses the fast-path cache).
  edbms::Trapdoor fresh;
  std::vector<edbms::Value> row;  // insert
  edbms::TupleId tid = 0;         // delete
};

/// One built and warmed system under test.
class Deployment {
 public:
  /// Builds the deployment: encrypt and load, enable every attribute, start
  /// the server (serve-remote-rtt), answer every pool constant once at TM
  /// latency 0, open the WAL in a fresh directory under `workdir`
  /// (write-mixed-durable), then switch the TM latency on.
  static Result<std::unique_ptr<Deployment>> Create(const Inputs& in,
                                                    const std::string& workdir);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Draws client `client`'s next operation from its sequence `rng`.
  Op Next(size_t client, Rng* rng);
  /// Runs `op` through the public entry point, inside its bench.* root span.
  /// Selections fill `rows`; an error is a failed operation.
  Status Run(size_t client, const Op& op, std::vector<edbms::TupleId>* rows);
  /// Plans (without executing) a statement drawn like Next's. SQL workloads
  /// only.
  Status Explain(Rng* rng);
  bool sql() const { return planner_ != nullptr; }

  /// Writes acknowledged so far that the store does not reflect: inserted
  /// rows not live, or deleted rows still live. Call with no op in flight.
  size_t LostWrites() const;
  size_t IndexBytes() const;
  size_t LiveRows() const { return live_rows_.load(); }

 private:
  explicit Deployment(const Inputs& in) : in_(in) {}
  Status Build(const std::string& workdir);
  Status Warm();
  /// A client's position in its workload's operation pattern, and its
  /// bags of pool indices.
  struct ClientState {
    uint64_t seq = 0;
    std::vector<Bag> bags;
  };
  /// Draws the next sql-scan-local statement and its expected answer: the
  /// pattern `<`, `<`, `<`, BETWEEN, conjunction, repeated (60/20/20).
  void DrawStatement(ClientState* cs, Rng* rng, Op* op) const;
  /// Fills a select of `attr` < pool[attr][idx]: re-send or freshly sealed.
  void DrawComparison(edbms::AttrId attr, size_t idx, bool repeat, Op* op);
  std::vector<edbms::TupleId> SelectOne(const edbms::Trapdoor& td);

  const Inputs& in_;
  // Members are destroyed bottom-up: the index before the Edbms stack it
  // reads, the client before the server, the server before the store.
  std::unique_ptr<edbms::CipherbaseEdbms> db_;
  std::unique_ptr<net::QpfServer> server_;
  std::unique_ptr<net::QpfClient> client_;
  std::unique_ptr<net::RemoteEdbms> remote_;
  std::unique_ptr<net::CoalescedEdbms> bus_;
  edbms::Edbms* front_ = nullptr;
  query::Catalog catalog_;
  std::unique_ptr<core::PrkbIndex> index_;
  std::unique_ptr<query::Planner> planner_;
  std::unique_ptr<core::ConcurrentPrkbIndex> cindex_;
  std::string wal_dir_;

  /// CipherbaseEdbms's data-owner state (nonce counter, issued-trapdoor
  /// map) is single-threaded, so sealing a trapdoor and encrypting an
  /// inserted row take this lock. An insert's latency includes waiting
  /// for it.
  std::mutex do_mu_;
  /// [attr][pool_idx] trapdoors answered at set-up; repeats re-send them.
  std::vector<std::vector<edbms::Trapdoor>> warm_;
  /// [client] own inserted rows still live, and own deleted rows. Each
  /// client touches only its own slot.
  std::vector<std::vector<edbms::TupleId>> live_inserts_;
  std::vector<std::vector<edbms::TupleId>> deleted_;
  std::atomic<size_t> live_rows_{0};
  /// [client] op-sequence state; each client touches only its own slot.
  std::vector<ClientState> clients_;
  ClientState explain_;
};

}  // namespace prkb::bench::profile

#endif  // PRKB_BENCH_PROFILE_WORKLOADS_H_
