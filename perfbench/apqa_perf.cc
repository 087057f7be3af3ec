// End-to-end benchmark of authenticated queries over the APQA service.
//
//   apqa_perf --workload range_scan|point_lookup|read_write --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//
// Normally launched through perfbench/run.py, which builds this binary from
// the checkout first. One run deploys the TPC-H Lineitem AP²G-tree (16³
// domain, scale 0.1, 10 policies, 20 % user access) behind net::SpServer,
// drives verified queries through net::ApqaClient and DO updates through
// net::DoUpdateClient, checks every answer against a plaintext oracle, and
// prints its metrics by name and unit. The last stdout line is the JSON
// result (see stats.h). Workloads, metrics and the layer table are described
// in README.md next to this file.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the load in four
// slices (spans off, on, on, off), replays the first queries of the list one
// at a time through the direct calls into core/net, and reports the
// per-layer split.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/sp_storage.h"
#include "core/system.h"
#include "core/thread_pool.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/pipe_transport.h"
#include "net/server.h"
#include "net/socket_transport.h"
#include "span_transport.h"
#include "stats.h"
#include "tpch/tpch.h"

namespace {

using namespace apqa;
using perfbench::Metric;
using perfbench::NowMs;
using perfbench::OpCount;
using perfbench::Percentile;
namespace fs = std::filesystem;

// --- deployment and workload constants ---------------------------------------

const core::Domain kDomain{3, 4};  // 16³ grid
constexpr double kTpchScale = 0.1;
constexpr int kPolicies = 10;
constexpr int kRoles = 10;
constexpr int kOrFan = 3;
constexpr int kAndFan = 2;
constexpr double kUserAccess = 0.2;
// The policy set (and so the user's roles) is the one bench::Deploy uses,
// whatever the run's seed: signature sizes, and with them DO signing,
// update and recovery costs, scale with the policies' span programs, and a
// per-seed policy set moved update_p50_ms by 1.6x and recover_s by 1.75x
// across five seeds. The seed picks the data, the query list and the
// update stream.
constexpr std::uint64_t kPolicySeed = 20180610;

constexpr int kSetupReps = 3;           // setup_s is their median
constexpr std::size_t kRangeListLen = 32;
constexpr std::size_t kKeyListLen = 256;
constexpr std::size_t kBatchOps = 4;     // upserts per DO update batch
constexpr double kUpdatePeriodMs = 400;  // read_write open-loop schedule
constexpr int kProbeBatches = 32;        // idle-server update probe
constexpr int kLoadSlices = 8;           // the probe runs between them
constexpr double kRecoverBudgetS = 2.0;
constexpr std::size_t kRecoverReps = 3;

// Low-corner residues (mod 4) of the 5 % boxes, one row per box, cycled.
// A 6-cell extent splits into grid-tree nodes differently for each residue,
// so entry counts swing ~3x between alignments; a fixed table in which each
// residue appears twice per dimension gives every run the same mix of node
// shapes, while the seed still picks where each box sits.
constexpr std::uint32_t kFivePctResidues[8][3] = {
    {0, 0, 1}, {1, 1, 0}, {2, 3, 3}, {3, 0, 2},
    {0, 2, 1}, {1, 3, 0}, {2, 1, 3}, {3, 2, 2}};

enum class Wire { kPipe, kTcp };

struct Workload {
  const char* name;
  Wire wire;
  bool sp_parallel;        // SP on the §8.2 path with nproc threads
  int server_workers;
  int query_clients;
  bool range;              // Q6 ranges (else equality keys)
  bool open_loop_updates;  // DO pushes during the load (else a probe after)
  std::size_t replay;      // queries replayed layer by layer when traced
};

// range_scan belongs on TCP loopback, but there SocketTransport::Recv turns
// a poll timeout that lands inside a frame into kError, and SpServer's
// session loop then exits, leaving the connection unanswered. Under
// range_scan's CPU load that happens within a 20 s run more often than not,
// so range_scan runs over the pipe and range_scan_tcp, the same workload
// over TCP, is kept out of BENCHMARK.json as the reproduction until the
// transport is fixed.
const Workload kWorkloads[] = {
    {"range_scan", Wire::kPipe, true, 2, 1, true, false, 8},
    {"range_scan_tcp", Wire::kTcp, true, 2, 1, true, false, 8},
    {"point_lookup", Wire::kPipe, false, 4, 4, false, false, 64},
    {"read_write", Wire::kPipe, false, 4, 2, false, true, 64},
};

int Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// --- seeded inputs -----------------------------------------------------------

std::vector<core::Record> GenerateRecords(const tpch::PolicyGen& pg,
                                          std::uint64_t seed) {
  tpch::TpchGen gen(kTpchScale, seed);
  return tpch::LineitemRecords(gen.Lineitem(), kDomain, pg.policies());
}

// The update value keeps the original's length ("lineitem|" and the tag are
// both 9 bytes), so a key's VO size does not depend on the epoch it is read
// at, while its content does — the oracle checks the epoch's value.
std::string UpdatedValue(const std::string& original, std::size_t batch) {
  char tag[32];
  std::snprintf(tag, sizeof(tag), "u%07zu|", batch + 1);
  std::string v = original;
  v.replace(0, std::min<std::size_t>(9, v.size()), tag);
  return v;
}

std::uint32_t Extent(double selectivity) {
  double per_dim = std::pow(selectivity, 1.0 / kDomain.dims);
  return std::clamp<std::uint32_t>(
      static_cast<std::uint32_t>(std::lround(per_dim * kDomain.SideLength())),
      1, kDomain.SideLength());
}

// Everything the workload generator derives from the seed.
struct Inputs {
  std::vector<core::Record> records;  // epoch-0 table
  core::RoleSet user_roles;
  std::vector<core::Box> ranges;      // range_scan: [1%, 1%, 1%, 5%] cycled
  std::vector<core::Point> keys;      // equality: occupied / uniform alternate
  std::vector<std::vector<core::AdsUpdateOp>> batches;  // b: epoch b -> b+1
};

Inputs MakeInputs(std::uint64_t seed, double seconds) {
  Inputs in;
  tpch::PolicyGen pg(kPolicies, kRoles, kOrFan, kAndFan, kPolicySeed);
  in.records = GenerateRecords(pg, seed);
  in.user_roles = pg.RolesForAccessFraction(kUserAccess);
  crypto::Rng rng(seed ^ 0x51ed270b7a1c3f5dULL);

  const std::uint32_t side = kDomain.SideLength();
  const std::uint32_t five = Extent(0.05);
  for (std::size_t i = 0; i < kRangeListLen; ++i) {
    if (i % 4 != 3) {
      in.ranges.push_back(tpch::RandomRangeQuery(kDomain, 0.01, &rng));
      continue;
    }
    const std::uint32_t* residue = kFivePctResidues[(i / 4) % 8];
    core::Box box;
    for (int d = 0; d < kDomain.dims; ++d) {
      std::uint32_t c = residue[d];
      std::uint32_t slots = (side - five - c) / 4 + 1;
      std::uint32_t lo = c + 4 * static_cast<std::uint32_t>(rng.NextU64() % slots);
      box.lo.push_back(lo);
      box.hi.push_back(lo + five - 1);
    }
    in.ranges.push_back(box);
  }

  std::vector<core::Point> occupied;
  for (std::size_t i = 0; i < kKeyListLen; ++i) {
    if (i % 2 == 0) {
      in.keys.push_back(in.records[rng.NextU64() % in.records.size()].key);
      occupied.push_back(in.keys.back());
    } else {
      core::Point p;
      for (int d = 0; d < kDomain.dims; ++d) {
        p.push_back(static_cast<std::uint32_t>(rng.NextU64() % side));
      }
      in.keys.push_back(p);
    }
  }

  // Upserts rewrite occupied keys of the query list, so equality queries in
  // read_write read values that changed under them. The keys of one batch
  // lie in distinct top-level octants, so every batch re-signs the same
  // number of tree nodes (four disjoint leaf-to-octant paths plus the root);
  // with shared ancestors allowed, DO re-signing time varied 2x per batch.
  std::map<core::Point, const core::Record*> by_key;
  for (const auto& r : in.records) by_key[r.key] = &r;
  auto octant = [](const core::Point& key) {
    std::uint32_t o = 0;
    for (std::uint32_t c : key) o = (o << 1) | (c >> (kDomain.bits - 1));
    return o;
  };
  std::size_t batches = static_cast<std::size_t>(
                            std::ceil(seconds * 1000.0 / kUpdatePeriodMs)) +
                        kProbeBatches + 4;
  for (std::size_t b = 0; b < batches; ++b) {
    std::vector<core::AdsUpdateOp> ops;
    while (ops.size() < kBatchOps) {
      const core::Point& key = occupied[rng.NextU64() % occupied.size()];
      bool taken = std::any_of(ops.begin(), ops.end(), [&](const auto& op) {
        return octant(op.record.key) == octant(key);
      });
      if (taken) continue;
      core::Record r = *by_key.at(key);
      r.value = UpdatedValue(r.value, b);
      ops.push_back({core::AdsUpdateOp::Kind::kUpsert, std::move(r)});
    }
    in.batches.push_back(std::move(ops));
  }
  return in;
}

// Plaintext oracle: the generated table, advanced epoch by epoch by the
// seeded update stream.
class Oracle {
 public:
  explicit Oracle(const Inputs& in) : roles_(in.user_roles) {
    for (const auto& r : in.records) base_[r.key] = &r;
    for (std::size_t b = 0; b < in.batches.size(); ++b) {
      for (const auto& op : in.batches[b]) {
        history_[op.record.key].push_back({b + 1, op.record.value});
      }
    }
  }

  bool CheckEquality(const core::Point& key, std::uint64_t epoch,
                     bool accessible, const core::Record& got) const {
    auto it = base_.find(key);
    bool expect = it != base_.end() && it->second->policy.Evaluate(roles_);
    if (accessible != expect) return false;
    if (!accessible) return true;
    return got.key == key && got.value == ValueAt(*it->second, epoch) &&
           got.policy.ToString() == it->second->policy.ToString();
  }

  bool CheckRange(const core::Box& box, std::uint64_t epoch,
                  std::vector<core::Record> got) const {
    std::vector<const core::Record*> want;
    for (const auto& [key, rec] : base_) {
      if (box.Contains(key) && rec->policy.Evaluate(roles_)) want.push_back(rec);
    }
    if (got.size() != want.size()) return false;
    std::sort(got.begin(), got.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (got[i].key != want[i]->key ||
          got[i].value != ValueAt(*want[i], epoch) ||
          got[i].policy.ToString() != want[i]->policy.ToString()) {
        return false;
      }
    }
    return true;
  }

 private:
  std::string ValueAt(const core::Record& r, std::uint64_t epoch) const {
    std::string v = r.value;
    auto it = history_.find(r.key);
    if (it == history_.end()) return v;
    for (const auto& [e, value] : it->second) {
      if (e <= epoch) v = value;
    }
    return v;
  }

  core::RoleSet roles_;
  std::map<core::Point, const core::Record*> base_;
  std::map<core::Point, std::vector<std::pair<std::uint64_t, std::string>>>
      history_;
};

// --- deployment --------------------------------------------------------------

struct Connection {
  std::shared_ptr<perfbench::SpanTable> spans;  // null for the DO link
  std::shared_ptr<perfbench::SpanTransport> client_end;
};

struct Deployment {
  std::vector<core::Record> records;  // as the DO generated them
  core::RoleSet user_roles;
  std::unique_ptr<core::DataOwner> owner;
  std::optional<core::GridTree> genesis;  // epoch-0 copy: recovery baseline
  std::optional<core::GridTree> do_tree;  // DO replica advanced by updates
  std::string state_dir;
  std::unique_ptr<core::SpStateStore> store;
  std::unique_ptr<core::ServiceProvider> sp;
  std::unique_ptr<net::SpServer> server;
  std::unique_ptr<net::TcpListener> listener;
  std::vector<Connection> conns;  // query clients, then the DO
  std::vector<std::unique_ptr<net::ApqaClient>> clients;
  std::unique_ptr<net::DoUpdateClient> do_client;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    if (server != nullptr) server->Stop();
  }
};

net::ClientOptions BenchClientOptions() {
  // Generous: a 5 % range query takes about a second, and a retry is an
  // outcome to report, not a tuning artefact.
  net::ClientOptions o;
  o.deadline_ms = 60000;
  o.attempt_timeout_ms = 30000;
  return o;
}

// Everything setup_s times: the DO generates and signs, the SP, server and
// clients come up, up to the point where the first query can be sent.
std::unique_ptr<Deployment> Setup(const Workload& w, std::uint64_t seed,
                                  const std::string& state_dir, int nproc,
                                  bool traced) {
  auto d = std::make_unique<Deployment>();
  tpch::PolicyGen pg(kPolicies, kRoles, kOrFan, kAndFan, kPolicySeed);
  d->records = GenerateRecords(pg, seed);
  d->user_roles = pg.RolesForAccessFraction(kUserAccess);
  d->owner = std::make_unique<core::DataOwner>(pg.universe(), kDomain, seed);
  core::GridTree tree = [&] {
    core::ThreadPool pool(nproc);
    return d->owner->BuildAds(d->records, &pool);
  }();
  d->genesis.emplace(tree);
  d->do_tree.emplace(tree);

  d->state_dir = state_dir;
  fs::remove_all(state_dir);
  d->store = core::SpStateStore::Open(state_dir);
  if (d->store == nullptr) throw std::runtime_error("cannot open " + state_dir);
  d->sp = std::make_unique<core::ServiceProvider>(
      d->owner->keys(), std::move(tree), w.sp_parallel ? nproc : 1);
  net::SpServerOptions so;
  so.worker_threads = w.server_workers;
  so.state_store = d->store.get();
  d->server = std::make_unique<net::SpServer>(d->sp.get(), so);

  if (w.wire == Wire::kTcp) {
    d->listener = std::make_unique<net::TcpListener>(0);
    if (!d->listener->ok()) throw std::runtime_error("cannot listen");
  }
  for (int c = 0; c <= w.query_clients; ++c) {
    std::shared_ptr<net::Transport> client_raw;
    std::shared_ptr<net::Transport> server_raw;
    if (w.wire == Wire::kTcp) {
      client_raw = net::SocketTransport::Connect("127.0.0.1",
                                                 d->listener->port(), 5000);
      server_raw = d->listener->Accept(5000);
      if (client_raw == nullptr || server_raw == nullptr) {
        throw std::runtime_error("loopback connect failed");
      }
    } else {
      auto [a, b] = net::PipeTransport::CreatePair();
      server_raw = std::move(a);
      client_raw = std::move(b);
    }
    Connection conn;
    if (traced && c < w.query_clients) {
      conn.spans = std::make_shared<perfbench::SpanTable>();
    }
    conn.client_end = std::make_shared<perfbench::SpanTransport>(
        client_raw, conn.spans, /*client_side=*/true);
    if (!d->server->AttachTransport(std::make_shared<perfbench::SpanTransport>(
            server_raw, conn.spans, /*client_side=*/false))) {
      throw std::runtime_error("server refused a transport");
    }
    d->conns.push_back(std::move(conn));
  }
  core::UserCredentials creds = d->owner->EnrollUser(d->user_roles);
  for (int c = 0; c < w.query_clients; ++c) {
    d->clients.push_back(std::make_unique<net::ApqaClient>(
        d->owner->keys(), creds, d->conns[c].client_end, BenchClientOptions()));
  }
  d->do_client = std::make_unique<net::DoUpdateClient>(
      d->conns.back().client_end, BenchClientOptions());
  return d;
}

bool SameRecords(const std::vector<core::Record>& a,
                 const std::vector<core::Record>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].value != b[i].value ||
        a[i].policy.ToString() != b[i].policy.ToString()) {
      return false;
    }
  }
  return true;
}

// --- load --------------------------------------------------------------------

struct QuerySample {
  std::size_t index = 0;  // position in the seeded list
  bool ok = false;        // verified kOk and equal to the oracle
  double start_ms = 0;
  double end_ms = 0;
  std::size_t vo_bytes = 0;
  std::size_t results = 0;
  int attempts = 0;
  perfbench::RequestSpans spans;
};

struct UpdateSample {
  bool ok = false;
  double latency_ms = 0;  // due -> ack, DO re-signing included
  double late_ms = 0;     // how late the generator started the batch
  double do_apply_ms = 0;
  double push_ms = 0;
  std::size_t payload_bytes = 0;  // kAdsUpdate payload, outside the timing
};

struct LoadResult {
  std::vector<QuerySample> queries;
  std::vector<UpdateSample> updates;
  double start_ms = 0;
  double elapsed_ms = 0;  // load start -> last query completion
  std::size_t next = 0;   // list position after the last issued query
  net::ServerStats before;
  net::ServerStats after;

  // Adds a later slice of the same run; stats deltas stay the caller's.
  void Append(const LoadResult& slice) {
    queries.insert(queries.end(), slice.queries.begin(), slice.queries.end());
    updates.insert(updates.end(), slice.updates.begin(), slice.updates.end());
    elapsed_ms += slice.elapsed_ms;
    next = slice.next;
  }

  std::size_t ok_queries() const {
    return static_cast<std::size_t>(std::count_if(
        queries.begin(), queries.end(), [](const auto& q) { return q.ok; }));
  }
  double qps() const {
    return elapsed_ms > 0 ? 1000.0 * static_cast<double>(ok_queries()) /
                                elapsed_ms
                          : 0.0;
  }
};

class Runner {
 public:
  Runner(const Workload& w, const Inputs& in, Deployment* d)
      : w_(w), in_(in), oracle_(in), d_(d) {}

  std::uint64_t acked_epoch() const { return acked_epoch_; }

  // Closed-loop query clients (plus the open-loop DO in read_write) walking
  // the seeded list from position `first`, for `seconds`, and on until
  // position `until` has been issued: the whole list for vo_kb, the replay
  // set when traced.
  LoadResult Load(double seconds, bool with_updates, std::size_t first,
                  std::size_t until) {
    LoadResult res;
    res.before = d_->server->stats();
    const std::size_t list_len = w_.range ? in_.ranges.size() : in_.keys.size();
    std::atomic<std::size_t> next{first};
    res.start_ms = NowMs();
    const double end_ms = res.start_ms + seconds * 1000.0;
    std::vector<std::vector<QuerySample>> per_client(w_.query_clients);
    std::vector<std::thread> threads;
    for (int c = 0; c < w_.query_clients; ++c) {
      threads.emplace_back([&, c] {
        // Checked before taking a position, so none is taken and skipped.
        while (NowMs() < end_ms || next.load() < until) {
          per_client[c].push_back(Query(c, next.fetch_add(1) % list_len));
        }
      });
    }
    if (with_updates) {
      threads.emplace_back([&] {
        Updates(/*open_loop=*/true, res.start_ms, end_ms, 0, &res.updates);
      });
    }
    for (auto& t : threads) t.join();
    double last = res.start_ms;
    for (auto& v : per_client) {
      for (auto& q : v) {
        last = std::max(last, q.end_ms);
        res.queries.push_back(std::move(q));
      }
    }
    res.elapsed_ms = last - res.start_ms;
    res.next = next.load();
    res.after = d_->server->stats();
    return res;
  }

  // Closed-loop update probe on an otherwise idle server.
  std::vector<UpdateSample> Probe(int batches) {
    std::vector<UpdateSample> out;
    Updates(/*open_loop=*/false, 0, 0, batches, &out);
    return out;
  }

 private:
  QuerySample Query(int c, std::size_t i) {
    QuerySample s;
    s.index = i;
    net::ApqaClient& client = *d_->clients[c];
    const Connection& conn = d_->conns[c];
    try {
      s.start_ms = NowMs();
      net::ClientResult r;
      std::vector<core::Record> rows;
      core::Record rec;
      bool accessible = false;
      if (w_.range) {
        r = client.Range(in_.ranges[i], &rows);
      } else {
        r = client.Equality(in_.keys[i], &rec, &accessible);
      }
      s.end_ms = NowMs();
      s.attempts = r.attempts;
      s.vo_bytes = conn.client_end->last_payload_bytes();
      if (conn.spans != nullptr && conn.spans->on()) {
        s.spans = conn.spans->Take(conn.client_end->last_request_id());
      }
      std::uint64_t epoch = client.stats().last_server_epoch;
      if (!r.ok()) {
        Complain("query " + std::to_string(i) + ": " + r.ToString());
      } else if (w_.range ? !oracle_.CheckRange(in_.ranges[i], epoch, rows)
                          : !oracle_.CheckEquality(in_.keys[i], epoch,
                                                   accessible, rec)) {
        Complain("query " + std::to_string(i) + " differs from the oracle");
      } else {
        s.ok = true;
      }
      s.results = w_.range ? rows.size() : (accessible ? 1 : 0);
    } catch (const std::exception& e) {
      s.end_ms = NowMs();
      Complain(std::string("query threw: ") + e.what());
    }
    return s;
  }

  void Updates(bool open_loop, double start_ms, double end_ms, int max_batches,
               std::vector<UpdateSample>* out) {
    for (int k = 0;; ++k) {
      if (next_batch_ >= in_.batches.size()) break;
      double due = NowMs();
      if (open_loop) {
        due = start_ms + k * kUpdatePeriodMs;
        if (due >= end_ms) break;
        double wait = due - NowMs();
        if (wait > 0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(wait));
        }
      } else if (k >= max_batches) {
        break;
      }
      UpdateSample u;
      try {
        double t0 = NowMs();
        u.late_ms = std::max(0.0, t0 - due);
        core::SignedAdsUpdate update =
            d_->owner->ApplyUpdates(&*d_->do_tree, in_.batches[next_batch_]);
        double t1 = NowMs();
        net::UpdateResult r = d_->do_client->Push(update);
        double t2 = NowMs();
        u.do_apply_ms = t1 - t0;
        u.push_ms = t2 - t1;
        u.latency_ms = t2 - due;
        u.ok = r.ok() && r.apply == core::ApplyStatus::kApplied &&
               r.server_epoch == next_batch_ + 1;
        if (u.ok) {
          acked_epoch_ = r.server_epoch;
        } else {
          Complain("update " + std::to_string(next_batch_) + ": " +
                   r.ToString());
        }
        u.payload_bytes = net::EncodeAdsUpdatePayload(update).size();
      } catch (const std::exception& e) {
        Complain(std::string("update threw: ") + e.what());
      }
      ++next_batch_;  // the DO replica moved on either way
      out->push_back(u);
    }
  }

  void Complain(const std::string& what) {
    // Only the first few, so a systematic failure stays readable.
    if (complaints_.fetch_add(1) < 5) {
      std::fprintf(stderr, "apqa_perf: %s\n", what.c_str());
    }
  }

  const Workload& w_;
  const Inputs& in_;
  Oracle oracle_;
  Deployment* d_;
  std::size_t next_batch_ = 0;  // touched by one thread at a time
  std::uint64_t acked_epoch_ = 0;
  std::atomic<int> complaints_{0};
};

// --- recovery ----------------------------------------------------------------

struct RecoveryResult {
  std::vector<double> seconds;
  core::RecoveryStats stats;
  bool ok = true;
};

// SpStateStore::Open + Recover over fresh copies of the state dir as it is
// now, timed, repeated while the budget lasts; each must come back at
// `acked_epoch`.
RecoveryResult MeasureRecovery(const Deployment& d, const std::string& work,
                               std::uint64_t acked_epoch) {
  RecoveryResult res;
  const std::string source = work + "/state-copy";
  fs::remove_all(source);
  fs::copy(d.state_dir, source, fs::copy_options::recursive);
  double spent = 0;
  while (res.ok && res.seconds.size() < kRecoverReps &&
         spent < kRecoverBudgetS) {
    std::string dir = work + "/recover";
    fs::remove_all(dir);
    fs::copy(source, dir, fs::copy_options::recursive);
    core::GridTree genesis(*d.genesis);
    double t0 = NowMs();
    std::unique_ptr<core::SpStateStore> store = core::SpStateStore::Open(dir);
    if (store == nullptr) {
      std::fprintf(stderr, "apqa_perf: cannot open %s\n", dir.c_str());
      res.ok = false;
      break;
    }
    core::GridTree tree =
        store->Recover(d.owner->keys(), std::move(genesis), &res.stats);
    res.seconds.push_back((NowMs() - t0) / 1000.0);
    spent += res.seconds.back();
    if (res.stats.recovered_epoch != acked_epoch ||
        tree.epoch() != acked_epoch) {
      std::fprintf(stderr,
                   "apqa_perf: recovery reached epoch %llu, last ack was "
                   "%llu\n",
                   static_cast<unsigned long long>(res.stats.recovered_epoch),
                   static_cast<unsigned long long>(acked_epoch));
      res.ok = false;
    }
  }
  return res;
}

// --- per-entry determinism ---------------------------------------------------

struct Shape {
  std::size_t vo_bytes = 0;
  std::size_t results = 0;
  bool seen = false;
};

// First verified shape of each list entry; false if any repeat differs.
bool CollectShapes(const std::vector<QuerySample>& qs, std::vector<Shape>* out) {
  bool ok = true;
  for (const auto& q : qs) {
    if (!q.ok) continue;
    Shape& s = (*out)[q.index];
    if (!s.seen) {
      s = {q.vo_bytes, q.results, true};
    } else if (s.vo_bytes != q.vo_bytes || s.results != q.results) {
      std::fprintf(stderr, "apqa_perf: list entry %zu changed shape\n",
                   q.index);
      ok = false;
    }
  }
  return ok;
}

// --- traced replay -----------------------------------------------------------

struct LayerSample {
  bool ok = false;
  double construct = 0, serialize = 0, encode = 0, decode = 0, vo_decode = 0,
         verify = 0;
  std::size_t aps_entries = 0, result_entries = 0, vo_bytes = 0, results = 0;
};

// One query through the direct calls the service makes, each timed from
// outside: ServiceProvider query, Vo::Serialize, EncodeFrame, DecodeFrame,
// Vo::Deserialize, Verify*VoEx with the client's settings.
LayerSample Replay(const Workload& w, const Inputs& in, const Deployment& d,
                   std::size_t i, std::uint64_t expected_epoch) {
  LayerSample s;
  const core::SystemKeys& keys = d.sp->keys();
  double t0 = NowMs();
  core::Vo vo = w.range ? d.sp->RangeQuery(in.ranges[i], d.user_roles)
                        : d.sp->EqualityQuery(in.keys[i], d.user_roles);
  double t1 = NowMs();
  common::ByteWriter writer;
  vo.Serialize(&writer);
  double t2 = NowMs();
  net::Frame frame;
  frame.type = net::MsgType::kVoResponse;
  frame.request_id = i + 1;
  frame.payload = writer.Take();
  std::vector<std::uint8_t> wire = net::EncodeFrame(frame);
  double t3 = NowMs();
  common::Untrusted<net::Frame> received;
  net::FrameDecodeError fe = net::DecodeFrame(wire, &received);
  double t4 = NowMs();
  // untrusted-ok: the reader feeds Vo::Deserialize, which re-taints.
  common::ByteReader reader(received.Unvalidated().payload);
  common::Untrusted<core::Vo> decoded = core::Vo::Deserialize(&reader);
  double t5 = NowMs();
  core::VerifyResult verdict;
  std::vector<core::Record> rows;
  core::Record rec;
  bool accessible = false;
  if (w.range) {
    verdict = core::VerifyRangeVoEx(keys.mvk, keys.domain, in.ranges[i],
                                    d.user_roles, keys.universe, decoded,
                                    &rows, /*exact_pairings=*/false,
                                    /*pool=*/nullptr, expected_epoch);
  } else {
    verdict = core::VerifyEqualityVoEx(keys.mvk, keys.domain, in.keys[i],
                                       d.user_roles, keys.universe, decoded,
                                       &rec, &accessible,
                                       /*exact_pairings=*/false,
                                       /*pool=*/nullptr, expected_epoch);
  }
  double t6 = NowMs();

  s.construct = t1 - t0;
  s.serialize = t2 - t1;
  s.encode = t3 - t2;
  s.decode = t4 - t3;
  s.vo_decode = t5 - t4;
  s.verify = t6 - t5;
  for (const auto& e : vo.entries) {
    if (std::holds_alternative<core::ResultEntry>(e)) {
      ++s.result_entries;
    } else {
      ++s.aps_entries;  // one ABS.Relax each
    }
  }
  s.vo_bytes = wire.size() - net::kFrameHeaderBytes - net::kFrameChecksumBytes;
  s.results = w.range ? rows.size() : (accessible ? 1 : 0);
  s.ok = fe == net::FrameDecodeError::kOk && reader.ok() && reader.AtEnd() &&
         verdict.ok();
  if (!s.ok) {
    std::fprintf(stderr, "apqa_perf: replay of entry %zu failed: %s\n", i,
                 verdict.ToString().c_str());
  }
  return s;
}

// --- output ------------------------------------------------------------------

void PrintMetrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const auto& m : ms) {
    std::printf("%s\n", perfbench::FormatMetricLine(m).c_str());
  }
}

void PrintTimingSummary(const char* what, const std::vector<double>& v) {
  perfbench::Tail tail = perfbench::TailPercentile(v);
  std::printf("  %s: n=%zu p50=%.3f ms p90=%.3f ms (%zu samples beyond p90)",
              what, v.size(), Percentile(v, 50), Percentile(v, 90),
              perfbench::SamplesBeyond(v.size(), 90));
  if (tail.percentile > 0) {
    std::printf("; highest percentile with >=10 beyond: p%d=%.3f ms\n",
                tail.percentile, tail.value);
  } else {
    std::printf("; fewer than 11 samples, no percentile has 10 beyond\n");
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

// One traced call split into layers. The layer times come from the idle
// replay of the same list entry, the wire stamps from the traced load; the
// two unaccounted terms close the sum, so the check is that the stamps nest
// inside the call and that the parts add back up to it.
struct LayerTotals {
  std::vector<double> construct, serialize, encode, decode, vo_decode, verify,
      transport, residency, server_unacc, client_unacc, call;
  std::size_t aps = 0;
  std::size_t result_entries = 0;

  bool Add(const QuerySample& q, const LayerSample& l) {
    const perfbench::RequestSpans& sp = q.spans;
    bool nested = q.start_ms <= sp.client_send &&
                  sp.client_send <= sp.server_recv &&
                  sp.server_recv <= sp.server_send &&
                  sp.server_send <= sp.client_recv &&
                  sp.client_recv <= q.end_ms;
    double c = q.end_ms - q.start_ms;
    double su = sp.residency_ms() - (l.construct + l.serialize + l.encode);
    double cu = c - (sp.transport_ms() + sp.residency_ms() + l.decode +
                     l.vo_decode + l.verify);
    double sum = l.construct + l.serialize + l.encode + su +
                 sp.transport_ms() + l.decode + l.vo_decode + l.verify + cu;
    construct.push_back(l.construct);
    serialize.push_back(l.serialize);
    encode.push_back(l.encode);
    decode.push_back(l.decode);
    vo_decode.push_back(l.vo_decode);
    verify.push_back(l.verify);
    transport.push_back(sp.transport_ms());
    residency.push_back(sp.residency_ms());
    server_unacc.push_back(su);
    client_unacc.push_back(cu);
    call.push_back(c);
    aps += l.aps_entries;
    result_entries += l.result_entries;
    return nested && std::fabs(sum - c) <= 1e-6 * std::max(1.0, c);
  }

  double PerQuery(std::size_t total) const {
    return call.empty() ? 0.0
                        : static_cast<double>(total) /
                              static_cast<double>(call.size());
  }
  double Share(const std::vector<double>& part) const {
    return Mean(call) > 0 ? 100.0 * Mean(part) / Mean(call) : 0.0;
  }
};

// --trace 0: the end-to-end metrics, with every span off.
std::vector<Metric> EndToEnd(const Workload& w, const Args& args,
                             const Inputs& in, const Deployment& d,
                             Runner* runner,
                             const std::vector<double>& setup_s,
                             bool* correct, OpCount* ops) {
  // Without write traffic the load runs in kLoadSlices slices, each
  // followed by its share of the idle update probe. The host's speed drifts
  // on a scale of seconds, so update samples taken across the whole window
  // ride the same mix of states as the query samples, where one or two
  // bursts would each ride a single state.
  const std::size_t list_len = w.range ? in.ranges.size() : in.keys.size();
  const int slices = w.open_loop_updates ? 1 : kLoadSlices;
  LoadResult load;
  for (int k = 0; k < slices; ++k) {
    // A slice ends with the query in flight at its deadline; the later
    // slices share what is left, so the load as a whole keeps --seconds.
    double left_s = args.seconds - load.elapsed_ms / 1000.0;
    LoadResult slice = runner->Load(
        std::max(0.0, left_s / (slices - k)), w.open_loop_updates, load.next,
        /*until=*/k == slices - 1 ? list_len : 0);
    load.Append(slice);
    if (!w.open_loop_updates) {
      std::vector<UpdateSample> probe =
          runner->Probe(kProbeBatches / kLoadSlices);
      load.updates.insert(load.updates.end(), probe.begin(), probe.end());
    }
  }
  const std::vector<UpdateSample>& updates = load.updates;
  RecoveryResult rec =
      MeasureRecovery(d, args.work_dir, runner->acked_epoch());
  std::vector<Shape> shapes(w.range ? in.ranges.size() : in.keys.size());
  *correct = *correct && rec.ok && CollectShapes(load.queries, &shapes);

  std::vector<double> lat;
  for (const auto& q : load.queries) {
    ops->Record(q.ok);
    if (q.ok) lat.push_back(q.end_ms - q.start_ms);
  }
  std::vector<double> ulat;
  for (const auto& u : updates) {
    ops->Record(u.ok);
    if (u.ok) ulat.push_back(u.latency_ms);
  }
  double vo_bytes = 0;
  std::uint64_t digest = 1469598103934665603ULL;  // FNV-1a over the shapes
  for (const auto& s : shapes) {
    if (!s.seen) *correct = false;
    vo_bytes += static_cast<double>(s.vo_bytes);
    for (std::size_t x : {s.vo_bytes, s.results}) {
      digest = (digest ^ x) * 1099511628211ULL;
    }
  }
  std::printf("  load: %zu queries (%zu verified) in %.3f s, %zu updates %s\n",
              load.queries.size(), load.ok_queries(), load.elapsed_ms / 1000.0,
              updates.size(),
              w.open_loop_updates ? "during the load"
                                  : "on the idle server between load slices");
  PrintTimingSummary("query latency", lat);
  PrintTimingSummary("update latency", ulat);
  std::printf("  shape digest %016llx over %zu list entries\n",
              static_cast<unsigned long long>(digest), shapes.size());
  std::printf("  recovery: %llu WAL records to epoch %llu in %.3f s (median "
              "of %zu; reported by the traced run as core.recover_s)\n",
              static_cast<unsigned long long>(rec.stats.wal_records),
              static_cast<unsigned long long>(rec.stats.recovered_epoch),
              Percentile(rec.seconds, 50), rec.seconds.size());
  return {
      {"setup_s", "s", Percentile(setup_s, 50)},
      {"qps", "1/s", load.qps()},
      {"query_p50_ms", "ms", Percentile(lat, 50)},
      {"query_p90_ms", "ms", Percentile(lat, 90)},
      {"vo_kb", "KiB", vo_bytes / static_cast<double>(shapes.size()) / 1024.0},
      {"update_p50_ms", "ms", Percentile(ulat, 50)},
      // The probe's 32 samples leave 3 beyond a p90, which one slow batch
      // moves; the tail is the highest percentile with 10 beyond instead.
      {"update_tail_ms", "ms", perfbench::TailPercentile(ulat).value},
      {"peak_rss_mb", "MiB", PeakRssMiB()},
  };
}

// --trace 1: the window in four slices, spans off, on, on, off (the order
// cancels warm-up and slow drift in the overhead figure), then the
// layer-by-layer replay, the update probe and recovery.
std::vector<Metric> PerLayer(const Workload& w, const Args& args,
                             const Inputs& in, const Deployment& d,
                             Runner* runner, bool* correct, OpCount* ops) {
  LoadResult plain;
  LoadResult traced;
  const bool kSpansOn[] = {false, true, true, false};
  for (int k = 0; k < 4; ++k) {
    const bool on = kSpansOn[k];
    for (const auto& c : d.conns) {
      if (c.spans != nullptr) c.spans->set_on(on);
    }
    // Every slice starts at the head of the list, so the traced ones hold
    // the replay set.
    LoadResult slice = runner->Load(args.seconds / 4, w.open_loop_updates,
                                    /*first=*/0, /*until=*/w.replay);
    (on ? traced : plain).Append(slice);
    // The two traced slices are adjacent, so one stats delta covers both.
    if (k == 1) traced.before = slice.before;
    if (k == 2) traced.after = slice.after;
  }
  std::vector<Shape> shapes(w.range ? in.ranges.size() : in.keys.size());
  *correct = *correct && CollectShapes(plain.queries, &shapes) &&
             CollectShapes(traced.queries, &shapes);

  LayerTotals layers;
  bool accounting = true;
  std::uint64_t epoch = d.clients[0]->expected_epoch();
  for (std::size_t i = 0; i < w.replay; ++i) {
    auto q = std::find_if(traced.queries.begin(), traced.queries.end(),
                          [&](const QuerySample& s) {
                            return s.ok && s.index == i && s.spans.complete();
                          });
    LayerSample l = Replay(w, in, d, i, epoch);
    ops->Record(l.ok);
    if (q == traced.queries.end() || !l.ok || l.vo_bytes != q->vo_bytes ||
        l.results != q->results) {
      std::fprintf(stderr,
                   "apqa_perf: entry %zu has no matching traced execution\n",
                   i);
      accounting = false;
    } else if (!layers.Add(*q, l)) {
      std::fprintf(stderr, "apqa_perf: entry %zu: layers do not add up\n", i);
      accounting = false;
    }
  }

  std::vector<UpdateSample> updates = plain.updates;
  updates.insert(updates.end(), traced.updates.begin(), traced.updates.end());
  if (!w.open_loop_updates) {
    std::vector<UpdateSample> probe = runner->Probe(kProbeBatches);
    updates.insert(updates.end(), probe.begin(), probe.end());
  }
  RecoveryResult rec = MeasureRecovery(d, args.work_dir, runner->acked_epoch());
  *correct = *correct && accounting && rec.ok;

  for (const LoadResult* l : {&plain, &traced}) {
    for (const auto& q : l->queries) ops->Record(q.ok);
  }
  std::vector<double> attempts;
  for (const auto& q : traced.queries) attempts.push_back(q.attempts);
  std::vector<double> do_apply, push, payload_kb, late;
  std::size_t applied = 0;
  for (const auto& u : updates) {
    ops->Record(u.ok);
    applied += u.ok ? 1 : 0;
    do_apply.push_back(u.do_apply_ms);
    push.push_back(u.push_ms);
    payload_kb.push_back(static_cast<double>(u.payload_bytes) / 1024.0);
    late.push_back(u.late_ms);
  }
  double wal_bytes =
      static_cast<double>(fs::file_size(fs::path(d.state_dir) / "wal.log"));
  double construct_total = 0;
  for (double x : layers.construct) construct_total += x;

  std::printf("  qps untraced %.4f, traced %.4f (%.1f s each)\n", plain.qps(),
              traced.qps(), args.seconds / 2);
  std::printf("  replayed %zu queries: %zu APS entries (the relax base), "
              "%zu result entries\n",
              layers.call.size(), layers.aps, layers.result_entries);
  std::printf("  accounting (stamps nest in the call; layers + unaccounted "
              "= call): %s\n",
              accounting ? "holds for every replayed query" : "FAILED");
  std::printf("  unaccounted share of the call: server %.2f%%, client %.2f%%\n",
              layers.Share(layers.server_unacc),
              layers.Share(layers.client_unacc));
  return {
      {"core.sp_construct_ms", "ms", Mean(layers.construct)},
      {"core.aps_entries", "count", layers.PerQuery(layers.aps)},
      {"core.result_entries", "count", layers.PerQuery(layers.result_entries)},
      {"abs.relax_ms_per_entry", "ms",
       layers.aps > 0 ? construct_total / static_cast<double>(layers.aps)
                      : 0.0},
      {"core.vo_serialize_ms", "ms", Mean(layers.serialize)},
      {"net.frame_encode_ms", "ms", Mean(layers.encode)},
      {"net.transport_ms", "ms", Mean(layers.transport)},
      {"net.frame_decode_ms", "ms", Mean(layers.decode)},
      {"core.vo_decode_ms", "ms", Mean(layers.vo_decode)},
      {"core.verify_ms", "ms", Mean(layers.verify)},
      {"net.server_residency_ms", "ms", Mean(layers.residency)},
      {"net.server_unaccounted_ms", "ms", Mean(layers.server_unacc)},
      {"net.client_unaccounted_ms", "ms", Mean(layers.client_unacc)},
      {"net.client_call_ms", "ms", Mean(layers.call)},
      {"trace.unaccounted_pct", "%",
       layers.Share(layers.server_unacc) + layers.Share(layers.client_unacc)},
      {"net.shed", "count",
       static_cast<double>(traced.after.shed - traced.before.shed)},
      {"net.expired", "count",
       static_cast<double>(traced.after.expired - traced.before.expired)},
      {"net.failed", "count",
       static_cast<double>(traced.after.failed - traced.before.failed)},
      {"net.attempts_per_query", "count", Mean(attempts)},
      {"core.do_apply_updates_ms", "ms", Mean(do_apply)},
      {"net.update_push_ms", "ms", Mean(push)},
      {"net.update_payload_kb", "KiB", Mean(payload_kb)},
      {"common.wal_bytes_per_update", "B",
       applied > 0 ? wal_bytes / static_cast<double>(applied) : 0.0},
      {"core.recover_s", "s", Percentile(rec.seconds, 50)},
      {"core.recover_wal_records", "count",
       static_cast<double>(rec.stats.wal_records)},
      {"gen.update_late_ms", "ms", Mean(late)},
      {"trace.overhead_pct", "%",
       plain.qps() > 0 ? 100.0 * (plain.qps() - traced.qps()) / plain.qps()
                       : 0.0},
      {"fail_rate", "ratio", ops->FailRate()},
  };
}

int Run(const Workload& w, const Args& args) {
  const int nproc = Nproc();
  fs::create_directories(args.work_dir);
  std::printf("workload %s: seed %llu, %.0f s, trace %d, nproc %d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, nproc);
  const Inputs in = MakeInputs(args.seed, args.seconds);
  bool correct = true;
  OpCount ops;

  // Setup, repeated for setup_s; each repetition must rebuild the same table.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    d.reset();
    double t0 = NowMs();
    d = Setup(w, args.seed, args.work_dir + "/state-" + std::to_string(rep),
              nproc, args.trace);
    setup_s.push_back((NowMs() - t0) / 1000.0);
    if (!SameRecords(d->records, in.records) ||
        d->user_roles != in.user_roles) {
      std::fprintf(stderr, "apqa_perf: setup %d is not what the seed gives\n",
                   rep);
      correct = false;
    }
  }
  std::printf("  %zu records, user holds %zu of %d roles\n",
              in.records.size(), in.user_roles.size(), kRoles);

  Runner runner(w, in, d.get());
  std::vector<Metric> metrics =
      args.trace
          ? PerLayer(w, args, in, *d, &runner, &correct, &ops)
          : EndToEnd(w, args, in, *d, &runner, setup_s, &correct, &ops);
  d.reset();
  fs::remove_all(args.work_dir);

  correct = correct && ops.failed == 0;
  std::printf("  fail_rate %.6f (%llu of %llu operations)\n", ops.FailRate(),
              static_cast<unsigned long long>(ops.failed),
              static_cast<unsigned long long>(ops.attempted));
  PrintMetrics(args.trace ? "per-layer metrics (traced run)"
                          : "end-to-end metrics (tracing off)",
               metrics);
  std::printf("%s\n",
              perfbench::FormatResultJson(correct, ops, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: apqa_perf --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      try {
        return Run(w, args);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "apqa_perf: %s\n", e.what());
        return 2;
      }
    }
  }
  std::fprintf(stderr, "apqa_perf: unknown workload %s\n",
               args.workload.c_str());
  return 2;
}
