// perfbench: one benchmark command for the FPTree system (see README.md).
//
//   fptree_perfbench --workload lookup-fixed|ingest-var|serve-wire
//                    --seed N --seconds S --trace 0|1 [--pool-dir DIR]
//                    [--toy]
//
// A run repeats whole cycles until --seconds have passed (at least two).
// Each cycle builds a fresh tree from one thread in seeded order (set-up),
// runs a fixed number of operations per worker (the timed phase), checks
// the tree, closes and reopens it (recovery) and checks it again. The last
// stdout line is one JSON object with correct/attempted/failed and every
// metric; the lines before it give the same metrics with sample counts.
//
// With --trace 1, odd cycles run with the timing decorators of trace.h and
// even cycles without, so the run reports the tracing overhead beside the
// per-layer numbers.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "checks.h"
#include "engine/sharded_index.h"
#include "index/kv_index.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "scm/latency.h"
#include "scm/pool.h"
#include "scm/stats.h"
#include "trace.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/timer.h"

namespace perfbench {
namespace {

namespace fi = fptree::index;
namespace net = fptree::net;
using fptree::NowNanos;
using fptree::Random64;
using fptree::Status;

constexpr size_t kScanLen = 16;
constexpr size_t kVarKeyLen = 16;
constexpr const char* kFixedTree = "fptree-c";
constexpr const char* kVarTree = "fptree-c-var";
constexpr const char* kTracedShard = "perfbench-traced-fptree-c-var";
constexpr size_t kWireShards = 4;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  bool var_keys = false;
  bool wire = false;
  uint64_t preload = 0;
  uint32_t threads = 0;  // in-process workers, or client connections
  uint64_t ops_per_thread = 0;
  // Mix in percent; scans take the rest.
  uint32_t get_pct = 0;
  uint32_t upsert_pct = 0;
  uint32_t insert_pct = 0;
  uint32_t window = 1;  // wire requests in flight per connection
  uint32_t reopens = 1;  // recoveries timed per cycle
  size_t pool_bytes = 0;
};

bool MakeWorkload(const std::string& name, bool toy, Workload* w) {
  w->name = name;
  if (name == "lookup-fixed") {
    w->preload = 1000000;
    w->threads = 4;
    w->ops_per_thread = 500000;
    w->reopens = 5;
    w->get_pct = 90;
    w->upsert_pct = 8;
    w->insert_pct = 0;
    w->pool_bytes = size_t{1} << 28;  // uses about 40 MB
  } else if (name == "ingest-var") {
    w->var_keys = true;
    w->preload = 400000;
    w->threads = 4;
    w->ops_per_thread = 200000;
    w->get_pct = 25;
    w->upsert_pct = 20;
    w->insert_pct = 50;
    w->pool_bytes = size_t{1} << 29;  // uses about 135 MB
  } else if (name == "serve-wire") {
    w->var_keys = true;
    w->wire = true;
    w->preload = 300000;
    w->threads = 2;
    w->ops_per_thread = 80000;
    w->get_pct = 60;
    w->upsert_pct = 20;
    w->insert_pct = 10;
    w->window = 16;
    w->reopens = 3;
    w->pool_bytes = size_t{1} << 27;  // per shard; each uses about 15 MB
  } else {
    return false;
  }
  if (toy) {
    w->preload /= 100;
    w->ops_per_thread /= 100;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Host placement

std::vector<int>& Cpus() {
  static std::vector<int> cpus;
  return cpus;
}

void InitCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) Cpus().push_back(c);
    }
  }
  if (Cpus().empty()) Cpus().push_back(0);
}

/// Restricts the calling thread to cpus[first .. first+count) (mod the
/// allowed list); threads it creates afterwards inherit the set.
void PinThread(size_t first, size_t count) {
  const std::vector<int>& cpus = Cpus();
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t i = 0; i < count; ++i) CPU_SET(cpus[(first + i) % cpus.size()], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

void UnpinThread() { PinThread(0, Cpus().size()); }

uint32_t CapToCpus(uint32_t n) {
  return std::max<uint32_t>(1, std::min<uint32_t>(n, Cpus().size()));
}

// ---------------------------------------------------------------------------
// Keys

/// Key i of a run: a bijective mix of i, so keys are distinct, land at
/// random positions, and come from the seed alone.
class KeyGen {
 public:
  explicit KeyGen(uint64_t seed)
      : salt_(fptree::Mix64(seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL)) {}
  uint64_t Fixed(uint64_t i) const { return fptree::Mix64(i ^ salt_); }
  /// 16 lowercase hex digits of Fixed(i).
  std::string_view Var(uint64_t i, char* buf) const {
    return Hex(Fixed(i), buf);
  }
  static std::string_view Hex(uint64_t x, char* buf) {
    static const char kDigits[] = "0123456789abcdef";
    for (size_t d = 0; d < kVarKeyLen; ++d) {
      buf[kVarKeyLen - 1 - d] = kDigits[x & 15];
      x >>= 4;
    }
    return std::string_view(buf, kVarKeyLen);
  }

 private:
  uint64_t salt_;
};

/// Key-type traits of the two index interfaces.
struct FixedSpace {
  using Index = fi::KVIndex;
  using Key = uint64_t;
  using Row = std::pair<uint64_t, uint64_t>;
  using TracedIndex = TracedFixed;
  static Key Make(const KeyGen& g, uint64_t i, char*) { return g.Fixed(i); }
  static Key RandomStart(Random64* rng, char*) { return rng->Next(); }
};

struct VarSpace {
  using Index = fi::VarIndex;
  using Key = std::string_view;
  using Row = std::pair<std::string, uint64_t>;
  using TracedIndex = TracedVar;
  static Key Make(const KeyGen& g, uint64_t i, char* buf) {
    return g.Var(i, buf);
  }
  static Key RandomStart(Random64* rng, char* buf) {
    return KeyGen::Hex(rng->Next(), buf);
  }
};

/// The preloaded keys, sorted: the model the scan checks compare against.
template <typename Space>
struct Model;

template <>
struct Model<FixedSpace> {
  std::vector<uint64_t> sorted;
  void Build(const KeyGen& g, uint64_t n) {
    sorted.resize(n);
    for (uint64_t i = 0; i < n; ++i) sorted[i] = g.Fixed(i);
    std::sort(sorted.begin(), sorted.end());
  }
};

template <>
struct Model<VarSpace> {
  std::string arena;
  std::vector<std::string_view> sorted;
  void Build(const KeyGen& g, uint64_t n) {
    arena.resize(n * kVarKeyLen);
    sorted.resize(n);
    for (uint64_t i = 0; i < n; ++i) sorted[i] = g.Var(i, &arena[i * kVarKeyLen]);
    std::sort(sorted.begin(), sorted.end());
  }
};

// ---------------------------------------------------------------------------
// Results

/// First check failure of a run, and how many there were.
class Verdict {
 public:
  void Fail(const std::string& why) {
    if (failures_.fetch_add(1) == 0) {
      std::lock_guard<std::mutex> lock(mu_);
      first_ = why;
    }
  }
  bool ok() const { return failures_.load() == 0; }
  uint64_t failures() const { return failures_.load(); }
  std::string first() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

 private:
  std::atomic<uint64_t> failures_{0};
  mutable std::mutex mu_;
  std::string first_;
};

struct WorkerResult {
  std::vector<uint32_t> lat[kNumKinds];
  std::vector<uint64_t> inserted;  // acknowledged fresh key indices
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t end_ns = 0;
  // Wire client only.
  uint64_t flush_ns = 0;
  uint64_t read_ns = 0;
  std::vector<uint32_t> rtt;  // every request's round trip
};

struct CycleResult {
  bool traced = false;
  double setup_s = 0;
  std::vector<double> recover_s;  // one per reopen
  uint64_t start_ns = 0;  // start of the timed phase
  double run_s = 0;
  double ops_per_s = 0;
  double scm_bytes_per_key = 0;
  double dram_bytes_per_key = 0;
  std::vector<double> pool_open_s;
  std::vector<double> core_rebuild_s;
  std::vector<double> engine_rebuild_s;
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::vector<WorkerResult> workers;
  std::map<std::string, uint64_t> index_counters;  // Stats() deltas
  std::map<std::string, uint64_t> net_counters;    // obs registry deltas
  uint64_t server_flushes = 0;
  TraceBuffer trace;  // traced cycles: the decorators' totals
};

std::map<std::string, uint64_t> CounterDelta(
    const fptree::obs::Snapshot& before, const fptree::obs::Snapshot& after) {
  std::map<std::string, uint64_t> d;
  for (const auto& [name, v] : after.counters) {
    auto it = before.counters.find(name);
    uint64_t b = it == before.counters.end() ? 0 : it->second;
    d[name] = v >= b ? v - b : 0;
  }
  return d;
}

// ---------------------------------------------------------------------------
// Shared pieces of a cycle

/// Pool files of one cycle, removed when the cycle ends however it ends.
class PoolFiles {
 public:
  explicit PoolFiles(std::string prefix) : prefix_(std::move(prefix)) {
    Remove();
  }
  ~PoolFiles() { Remove(); }
  PoolFiles(const PoolFiles&) = delete;
  PoolFiles& operator=(const PoolFiles&) = delete;
  const std::string& prefix() const { return prefix_; }

 private:
  void Remove() {
    fptree::scm::Pool::Destroy(prefix_).ok();
    for (size_t i = 0; i < kWireShards; ++i) {
      fptree::scm::Pool::Destroy(prefix_ + "." + std::to_string(i)).ok();
    }
  }
  std::string prefix_;
};

[[noreturn]] void Fatal(const std::string& what, const Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(2);
}

/// Inserts preload keys 0..n-1 from the calling thread, in key-index order
/// (a seeded random order of the key space).
template <typename Space>
void Preload(typename Space::Index* idx, const KeyGen& g, uint64_t n,
             Verdict* verdict) {
  char buf[kVarKeyLen];
  for (uint64_t i = 0; i < n; ++i) {
    typename Space::Key k = Space::Make(g, i, buf);
    if (!idx->Insert(k, EncodeValue(k, 0))) {
      verdict->Fail("preload insert of key " + Show(k) + " was refused");
      return;
    }
  }
}

/// Size() equals preload + acknowledged inserts, and every acknowledged key
/// is found carrying its own key. Runs on up to four threads.
template <typename Space>
void VerifyAll(typename Space::Index* idx, const KeyGen& g, uint64_t preload,
               const std::vector<uint64_t>& inserted, const char* when,
               Verdict* verdict) {
  std::string why;
  if (!CheckSize(idx->Size(), preload + inserted.size(), when, &why)) {
    verdict->Fail(why);
  }
  const uint64_t total = preload + inserted.size();
  const uint32_t threads = CapToCpus(4);
  std::vector<std::thread> pool;
  for (uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      char buf[kVarKeyLen];
      std::string w;
      for (uint64_t j = t; j < total; j += threads) {
        uint64_t i = j < preload ? j : inserted[j - preload];
        typename Space::Key k = Space::Make(g, i, buf);
        uint64_t v = 0;
        bool found = idx->Find(k, &v);
        if (!CheckGet(k, found, v, &w)) {
          verdict->Fail(std::string(when) + ": " + w);
          return;
        }
      }
    });
  }
  for (auto& th : pool) th.join();
}

std::vector<uint64_t> AllInserted(const std::vector<WorkerResult>& workers) {
  std::vector<uint64_t> all;
  for (const WorkerResult& r : workers) {
    all.insert(all.end(), r.inserted.begin(), r.inserted.end());
  }
  return all;
}

/// Sum over workers of each one's own completion rate: what a run that
/// stopped every worker at one deadline would count, without letting the
/// worker the host slowed most set the figure for all of them.
double SumOfRates(const std::vector<WorkerResult>& workers, uint64_t start) {
  double rate = 0;
  for (const WorkerResult& r : workers) {
    if (r.end_ns > start) rate += r.attempted / ((r.end_ns - start) * 1e-9);
  }
  return rate;
}

/// Starts `n` threads, thread t pinned to cpu `first_cpu + t`, runs fn(t)
/// on each from a common start line, and returns the start time; the
/// threads are joined before returning.
uint64_t RunTimed(uint32_t n, size_t first_cpu,
                  const std::function<void(uint32_t)>& fn) {
  std::atomic<uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      PinThread(first_cpu + t, 1);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      fn(t);
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  const uint64_t start = NowNanos();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  return start;
}

// ---------------------------------------------------------------------------
// In-process workloads: lookup-fixed, ingest-var

template <typename Space>
void InProcessWorker(typename Space::Index* idx, const Workload& w,
                     const KeyGen& g, const Model<Space>& model,
                     uint64_t stream, uint32_t t, WorkerResult* out,
                     Verdict* verdict) {
  using Key = typename Space::Key;
  Random64 rng(stream);
  char buf[kVarKeyLen];
  std::vector<typename Space::Row> rows;
  rows.reserve(kScanLen);
  std::string why;
  uint64_t next_fresh = w.preload + t;
  const bool exact_scans = w.insert_pct == 0;
  for (auto& l : out->lat) l.reserve(w.ops_per_thread);
  for (uint64_t n = 0; n < w.ops_per_thread; ++n) {
    const uint32_t r = static_cast<uint32_t>(rng.Uniform(100));
    if (r < w.get_pct) {
      Key k = Space::Make(g, rng.Uniform(w.preload), buf);
      uint64_t v = 0;
      const uint64_t t0 = NowNanos();
      bool found = idx->Find(k, &v);
      out->lat[kGet].push_back(static_cast<uint32_t>(NowNanos() - t0));
      if (!CheckGet(k, found, v, &why)) verdict->Fail(why);
    } else if (r < w.get_pct + w.upsert_pct) {
      Key k = Space::Make(g, rng.Uniform(w.preload), buf);
      bool inserted = false;
      const uint64_t t0 = NowNanos();
      Status s = idx->UpsertChecked(k, EncodeValue(k, n + 1), &inserted);
      out->lat[kPut].push_back(static_cast<uint32_t>(NowNanos() - t0));
      if (!s.ok()) {
        ++out->failed;
      } else if (inserted) {
        verdict->Fail("upsert of present key " + Show(k) +
                      " reported an insert");
      }
    } else if (r < w.get_pct + w.upsert_pct + w.insert_pct) {
      const uint64_t i = next_fresh;
      next_fresh += w.threads;
      Key k = Space::Make(g, i, buf);
      const uint64_t t0 = NowNanos();
      bool inserted = idx->Insert(k, EncodeValue(k, n + 1));
      out->lat[kPut].push_back(static_cast<uint32_t>(NowNanos() - t0));
      if (inserted) {
        out->inserted.push_back(i);
      } else {
        verdict->Fail("insert of fresh key " + Show(k) + " was refused");
      }
    } else {
      Key start = Space::RandomStart(&rng, buf);
      rows.clear();
      const uint64_t t0 = NowNanos();
      idx->RangeScan(start, kScanLen, [&](Key k, uint64_t v) {
        rows.emplace_back(k, v);
        return true;
      });
      out->lat[kScan].push_back(static_cast<uint32_t>(NowNanos() - t0));
      bool ok = exact_scans
                    ? CheckScanExact(start, rows, kScanLen, model.sorted, &why)
                    : CheckScanCovers(start, rows, kScanLen, model.sorted, &why);
      if (!ok) verdict->Fail(why);
    }
    ++out->attempted;
  }
  out->end_ns = NowNanos();
}

template <typename Space>
std::unique_ptr<typename Space::Index> MakeTree(fptree::scm::Pool* pool,
                                                bool traced) {
  std::unique_ptr<typename Space::Index> idx;
  Status s;
  if constexpr (std::is_same_v<Space, FixedSpace>) {
    s = fi::MakeFixedIndexChecked(kFixedTree, pool, false, &idx);
  } else {
    s = fi::MakeVarIndexChecked(kVarTree, pool, false, &idx);
  }
  if (!s.ok()) Fatal("index construction", s);
  if (traced) {
    idx = std::make_unique<typename Space::TracedIndex>(std::move(idx),
                                                        Role::kCore);
  }
  return idx;
}

template <typename Space>
CycleResult InProcessCycle(const Workload& w, const KeyGen& g,
                           const Model<Space>& model, uint64_t seed,
                           uint64_t cycle, bool traced,
                           const std::string& pool_prefix, Verdict* verdict) {
  namespace scm = fptree::scm;
  CycleResult res;
  res.traced = traced;
  PoolFiles files(pool_prefix);
  const uint64_t kPoolId = 1;

  // Set-up: create the pool, build the tree from one thread.
  uint64_t t0 = NowNanos();
  std::unique_ptr<scm::Pool> pool;
  Status s = scm::Pool::Create(
      files.prefix(), kPoolId,
      scm::Pool::Options{.size = w.pool_bytes, .randomize_base = false},
      &pool);
  if (!s.ok()) Fatal("pool create", s);
  auto idx = MakeTree<Space>(pool.get(), traced);
  Preload<Space>(idx.get(), g, w.preload, verdict);
  res.setup_s = (NowNanos() - t0) * 1e-9;

  // Timed phase.
  Tracer::Get().Reset();
  const fptree::obs::Snapshot stats0 = idx->Stats();
  res.workers.resize(w.threads);
  const uint64_t start = RunTimed(w.threads, 0, [&](uint32_t t) {
    InProcessWorker<Space>(idx.get(), w, g, model,
                           fptree::Mix64(seed ^ (cycle << 20) ^ (t + 1)), t,
                           &res.workers[t], verdict);
  });
  uint64_t end = start;
  for (const WorkerResult& r : res.workers) {
    end = std::max(end, r.end_ns);
    res.ops += r.attempted;
    res.failed += r.failed;
  }
  res.start_ns = start;
  res.run_s = (end - start) * 1e-9;
  res.ops_per_s = SumOfRates(res.workers, start);
  res.index_counters = CounterDelta(stats0, idx->Stats());
  if (traced) res.trace = Tracer::Get().Collect();

  const std::vector<uint64_t> inserted = AllInserted(res.workers);
  VerifyAll<Space>(idx.get(), g, w.preload, inserted, "after the run",
                   verdict);
  res.scm_bytes_per_key =
      static_cast<double>(idx->ScmBytes()) / std::max<size_t>(1, idx->Size());
  res.dram_bytes_per_key =
      static_cast<double>(idx->DramBytes()) / std::max<size_t>(1, idx->Size());

  // Close and reopen; each recovery ends when the first Get is served.
  for (uint32_t r = 0; r < w.reopens; ++r) {
    idx.reset();
    pool.reset();
    t0 = NowNanos();
    s = scm::Pool::Open(files.prefix(), kPoolId,
                        scm::Pool::Options{.size = 0, .randomize_base = true},
                        &pool);
    if (!s.ok()) Fatal("pool reopen", s);
    res.pool_open_s.push_back((NowNanos() - t0) * 1e-9);
    idx = MakeTree<Space>(pool.get(), false);
    char buf[kVarKeyLen];
    typename Space::Key k = Space::Make(g, 0, buf);
    uint64_t v = 0;
    bool found = idx->Find(k, &v);
    res.recover_s.push_back((NowNanos() - t0) * 1e-9);
    res.core_rebuild_s.push_back(idx->RecoveryNanos() * 1e-9);
    std::string why;
    if (!CheckGet(k, found, v, &why)) verdict->Fail("after reopen: " + why);
  }
  VerifyAll<Space>(idx.get(), g, w.preload, inserted, "after reopen",
                   verdict);
  idx.reset();
  pool.reset();
  return res;
}

// ---------------------------------------------------------------------------
// serve-wire: net::Server over sharded(fptree-c-var, 4)

/// Shard factory of traced cycles: the registered var tree wrapped in a
/// core-role decorator. Records when the engine handed it an open pool, so
/// the slowest shard's pool-open time can be read from outside.
std::atomic<uint64_t>& LastShardFactoryNanos() {
  static std::atomic<uint64_t> t{0};
  return t;
}

void RegisterTracedShard() {
  fi::IndexRegistry::Instance().RegisterVar(
      kTracedShard, [](fptree::scm::Pool* pool, bool locked) {
        uint64_t now = NowNanos();
        uint64_t prev = LastShardFactoryNanos().load();
        while (prev < now &&
               !LastShardFactoryNanos().compare_exchange_weak(prev, now)) {
        }
        return std::unique_ptr<fi::VarIndex>(std::make_unique<TracedVar>(
            fi::MakeVarIndex(kVarTree, pool, locked), Role::kCore));
      });
}

std::unique_ptr<fptree::engine::ShardedVarIndex> OpenEngine(
    const Workload& w, const std::string& prefix, bool traced, bool reopen) {
  fptree::engine::ShardedOptions opts;
  opts.shards = kWireShards;
  opts.path_prefix = prefix;
  opts.shard_bytes = reopen ? 0 : w.pool_bytes;
  opts.randomize_base = reopen;
  std::unique_ptr<fptree::engine::ShardedVarIndex> engine;
  Status s = fptree::engine::ShardedVarIndex::Make(
      traced ? kTracedShard : kVarTree, opts, &engine);
  if (!s.ok()) Fatal("sharded engine open", s);
  return engine;
}

std::unique_ptr<net::Server> StartServer(fi::VarIndex* index,
                                         uint32_t io_threads) {
  net::Server::Options opts;
  opts.port = 0;
  opts.io_threads = io_threads;
  auto server = std::make_unique<net::Server>(index, opts);
  // The IO threads inherit the starting thread's CPU set: keep them on the
  // first cpus, away from the client threads.
  PinThread(0, io_threads);
  Status s = server->Start();
  UnpinThread();
  if (!s.ok()) Fatal("server start", s);
  return server;
}

enum class WireOp : uint8_t { kGet, kUpsert, kInsert, kScan };

/// One request in a connection's window.
struct InFlight {
  WireOp op = WireOp::kGet;
  uint64_t fresh = 0;  // key index of a fresh insert
  uint64_t sent_ns = 0;
  char key[kVarKeyLen] = {};  // the key, or a scan's start key
};

/// Closed loop over one connection: keeps w.window requests in flight,
/// topping the window up and flushing once after each batch of responses.
void WireClientLoop(net::Client* c, const Workload& w, const KeyGen& g,
                    const Model<VarSpace>& model, uint64_t stream, uint32_t t,
                    WorkerResult* out, Verdict* verdict) {
  Random64 rng(stream);
  std::vector<InFlight> ring(w.window);
  net::Response rp;
  std::string why;
  uint64_t next_fresh = w.preload + t;
  uint64_t sent = 0, received = 0;
  const uint64_t total = w.ops_per_thread;
  for (auto& l : out->lat) l.reserve(total);
  out->rtt.reserve(total);

  auto queue_one = [&](InFlight* f) {
    const uint32_t r = static_cast<uint32_t>(rng.Uniform(100));
    if (r < w.get_pct) {
      f->op = WireOp::kGet;
      c->QueueGet(g.Var(rng.Uniform(w.preload), f->key));
    } else if (r < w.get_pct + w.upsert_pct) {
      f->op = WireOp::kUpsert;
      std::string_view k = g.Var(rng.Uniform(w.preload), f->key);
      c->QueueUpsert(k, EncodeValue(k, sent + 1));
    } else if (r < w.get_pct + w.upsert_pct + w.insert_pct) {
      // A PUT of a fresh key, sent as UPSERT: its response reports the
      // insert, which a plain PUT response does not.
      f->op = WireOp::kInsert;
      f->fresh = next_fresh;
      next_fresh += w.threads;
      std::string_view k = g.Var(f->fresh, f->key);
      c->QueueUpsert(k, EncodeValue(k, sent + 1));
    } else {
      f->op = WireOp::kScan;
      c->QueueScan(KeyGen::Hex(rng.Next(), f->key), kScanLen);
    }
  };

  auto check = [&](const InFlight& f, uint32_t lat) {
    const std::string_view k(f.key, kVarKeyLen);
    if (rp.status == net::RespStatus::kNoSpace) {
      ++out->failed;
      return;
    }
    if (rp.status != net::RespStatus::kOk) {
      verdict->Fail("wire response status " +
                    std::to_string(static_cast<int>(rp.status)) +
                    " for key " + Show(k));
      return;
    }
    switch (f.op) {
      case WireOp::kGet:
        out->lat[kGet].push_back(lat);
        if (!CheckGet(k, true, rp.value, &why)) verdict->Fail(why);
        break;
      case WireOp::kUpsert:
        out->lat[kPut].push_back(lat);
        if (rp.value != 0) {
          verdict->Fail("upsert of present key " + Show(k) +
                        " reported an insert");
        }
        break;
      case WireOp::kInsert:
        out->lat[kPut].push_back(lat);
        if (rp.value == 1) {
          out->inserted.push_back(f.fresh);
        } else {
          verdict->Fail("put of fresh key " + Show(k) +
                        " did not report an insert");
        }
        break;
      case WireOp::kScan:
        out->lat[kScan].push_back(lat);
        if (!CheckScanCovers(k, rp.scan, kScanLen, model.sorted, &why)) {
          verdict->Fail(why);
        }
        break;
    }
  };

  Status s;
  while (received < total) {
    const uint64_t first_new = sent;
    while (sent < total && sent - received < w.window) {
      queue_one(&ring[sent % w.window]);
      ++sent;
    }
    if (sent > first_new) {
      const uint64_t t0 = NowNanos();
      s = c->Flush();
      out->flush_ns += NowNanos() - t0;
      for (uint64_t i = first_new; i < sent; ++i) {
        ring[i % w.window].sent_ns = t0;
      }
      if (!s.ok()) break;
    }
    // Poll without blocking: a client that sleeps between responses adds a
    // vCPU wake-up per response, which this host charges as steal time that
    // varies from run to run. Take every response already there.
    const uint64_t t0 = NowNanos();
    bool got = false;
    while (s.ok() && !got) s = c->TryReadResponse(&rp, &got);
    uint64_t at = NowNanos();
    out->read_ns += at - t0;
    while (s.ok() && got) {
      const InFlight& f = ring[received % w.window];
      const uint32_t lat = static_cast<uint32_t>(at - f.sent_ns);
      out->rtt.push_back(lat);
      ++out->attempted;
      ++received;
      check(f, lat);
      got = false;
      if (received < sent) {
        s = c->TryReadResponse(&rp, &got);
        at = NowNanos();
      }
    }
    if (!s.ok()) break;
  }
  if (!s.ok()) {
    verdict->Fail("wire transport: " + s.ToString());
    out->attempted += total - received;
    out->failed += total - received;
  }
  out->end_ns = NowNanos();
}

CycleResult WireCycle(const Workload& w, const KeyGen& g,
                      const Model<VarSpace>& model, uint64_t seed,
                      uint64_t cycle, bool traced,
                      const std::string& pool_prefix, Verdict* verdict) {
  namespace obs = fptree::obs;
  CycleResult res;
  res.traced = traced;
  PoolFiles files(pool_prefix);
  const uint32_t io_threads = CapToCpus(2);
  // Every request and every server flush is sampled in traced cycles, so
  // the net.queue_depth record count is the server's flush count.
  obs::SetSampleInterval(traced ? 1 : 64);

  // Set-up: open the shards, preload from one thread, start the server and
  // connect the clients.
  uint64_t t0 = NowNanos();
  auto engine = OpenEngine(w, files.prefix(), traced, /*reopen=*/false);
  Preload<VarSpace>(engine.get(), g, w.preload, verdict);
  // The index the server fronts: the engine, decorated in traced cycles.
  std::unique_ptr<fi::VarIndex> front = std::move(engine);
  if (traced) {
    front = std::make_unique<TracedVar>(std::move(front), Role::kEngine);
  }
  auto server = StartServer(front.get(), io_threads);
  std::vector<std::unique_ptr<net::Client>> clients(w.threads);
  for (auto& c : clients) {
    c = std::make_unique<net::Client>();
    Status s = c->Connect("127.0.0.1", server->port());
    if (!s.ok()) Fatal("client connect", s);
  }
  res.setup_s = (NowNanos() - t0) * 1e-9;

  // Timed phase.
  Tracer::Get().Reset();
  const obs::Snapshot stats0 = front->Stats();
  const obs::Snapshot net0 = obs::MetricsRegistry::Global().TakeSnapshot();
  res.workers.resize(w.threads);
  const uint64_t start = RunTimed(w.threads, io_threads, [&](uint32_t t) {
    WireClientLoop(clients[t].get(), w, g, model,
                   fptree::Mix64(seed ^ (cycle << 20) ^ (t + 1)), t,
                   &res.workers[t], verdict);
  });
  uint64_t end = start;
  uint64_t received = 0;
  for (const WorkerResult& r : res.workers) {
    end = std::max(end, r.end_ns);
    res.ops += r.attempted;
    res.failed += r.failed;
    received += r.rtt.size();
  }
  res.start_ns = start;
  res.run_s = (end - start) * 1e-9;
  res.ops_per_s = SumOfRates(res.workers, start);
  for (auto& c : clients) c->Close();
  server->Shutdown();
  if (server->acked_ops() < received) {
    verdict->Fail("server acked " + std::to_string(server->acked_ops()) +
                  " responses, clients received " + std::to_string(received));
  }
  const obs::Snapshot net1 = obs::MetricsRegistry::Global().TakeSnapshot();
  res.net_counters = CounterDelta(net0, net1);
  {
    auto q0 = net0.histograms.find("net.queue_depth");
    auto q1 = net1.histograms.find("net.queue_depth");
    if (q1 != net1.histograms.end()) {
      res.server_flushes =
          q1->second.count -
          (q0 == net0.histograms.end() ? 0 : q0->second.count);
    }
  }
  res.index_counters = CounterDelta(stats0, front->Stats());
  if (traced) res.trace = Tracer::Get().Collect();
  server.reset();

  const std::vector<uint64_t> inserted = AllInserted(res.workers);
  VerifyAll<VarSpace>(front.get(), g, w.preload, inserted, "after the run",
                      verdict);
  res.scm_bytes_per_key = static_cast<double>(front->ScmBytes()) /
                          std::max<size_t>(1, front->Size());
  res.dram_bytes_per_key = static_cast<double>(front->DramBytes()) /
                           std::max<size_t>(1, front->Size());

  // Restart: close the engine, reopen every shard, start the server, and
  // stop the clock when the first GET is served over the wire.
  for (uint32_t r = 0; r < w.reopens; ++r) {
    front.reset();
    LastShardFactoryNanos().store(0);
    t0 = NowNanos();
    engine = OpenEngine(w, files.prefix(), traced, /*reopen=*/true);
    res.engine_rebuild_s.push_back(engine->RecoveryNanos() * 1e-9);
    double slowest_shard = 0;
    for (size_t i = 0; i < engine->shards(); ++i) {
      slowest_shard = std::max(slowest_shard,
                               engine->shard(i)->RecoveryNanos() * 1e-9);
    }
    res.core_rebuild_s.push_back(slowest_shard);
    if (traced) {
      res.pool_open_s.push_back((LastShardFactoryNanos().load() - t0) * 1e-9);
    }
    front = std::move(engine);
    server = StartServer(front.get(), io_threads);
    net::Client c;
    Status s = c.Connect("127.0.0.1", server->port());
    if (!s.ok()) Fatal("client reconnect", s);
    char buf[kVarKeyLen];
    std::string_view k = g.Var(0, buf);
    uint64_t v = 0;
    bool found = false;
    s = c.Get(k, &v, &found);
    res.recover_s.push_back((NowNanos() - t0) * 1e-9);
    std::string why;
    if (!s.ok()) {
      verdict->Fail("first get after restart: " + s.ToString());
    } else if (!CheckGet(k, found, v, &why)) {
      verdict->Fail("after restart: " + why);
    }
    c.Close();
    server->Shutdown();
    server.reset();
  }
  VerifyAll<VarSpace>(front.get(), g, w.preload, inserted, "after restart",
                      verdict);
  front.reset();
  obs::SetSampleInterval(64);
  return res;
}

// ---------------------------------------------------------------------------
// Reporting

/// Exact nearest-rank percentile of `v` (reorders v).
double Percentile(std::vector<uint32_t>* v, double p) {
  if (v->empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * v->size()));
  rank = std::min(std::max<size_t>(rank, 1), v->size()) - 1;
  std::nth_element(v->begin(), v->begin() + rank, v->end());
  return (*v)[rank];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // 0 when the value is not a percentile
};

using Metrics = std::vector<std::pair<std::string, Metric>>;

void Add(Metrics* m, const std::string& name, double value,
         const std::string& unit, uint64_t samples = 0) {
  m->push_back({name, Metric{value, unit, samples}});
}

std::vector<uint32_t> PooledLatencies(
    const std::vector<const CycleResult*>& cycles, OpKind kind) {
  std::vector<uint32_t> all;
  for (const CycleResult* c : cycles) {
    for (const WorkerResult& r : c->workers) {
      all.insert(all.end(), r.lat[kind].begin(), r.lat[kind].end());
    }
  }
  return all;
}

template <typename Fn>
double MedianOf(const std::vector<const CycleResult*>& cycles, const Fn& fn) {
  std::vector<double> v;
  for (const CycleResult* c : cycles) v.push_back(fn(*c));
  return Median(v);
}

/// Median of one per-reopen series over every reopen of `cycles`.
double PooledMedian(const std::vector<const CycleResult*>& cycles,
                    std::vector<double> CycleResult::*series) {
  std::vector<double> all;
  for (const CycleResult* c : cycles) {
    all.insert(all.end(), (c->*series).begin(), (c->*series).end());
  }
  return Median(all);
}

/// Median over cycles of each timed phase's throughput: one cycle slowed
/// by the host does not move it.
double OpsPerSecond(const std::vector<const CycleResult*>& cycles) {
  return MedianOf(cycles, [](const CycleResult& c) {
    return c.ops_per_s;
  });
}

void EndToEnd(const std::vector<const CycleResult*>& cycles, Metrics* m) {
  Add(m, "ops_per_s", OpsPerSecond(cycles), "1/s");
  static const char* kNames[kNumKinds] = {"get", "put", "scan"};
  for (int k = 0; k < kNumKinds; ++k) {
    std::vector<uint32_t> lat =
        PooledLatencies(cycles, static_cast<OpKind>(k));
    const uint64_t n = lat.size();
    const double p50 = Percentile(&lat, 0.50) * 1e-3;
    const double p99 = Percentile(&lat, 0.99) * 1e-3;
    Add(m, std::string(kNames[k]) + "_p50_us", p50, "us", n);
    Add(m, std::string(kNames[k]) + "_p99_us", p99, "us", n);
  }
  Add(m, "setup_s", MedianOf(cycles, [](const CycleResult& c) {
        return c.setup_s;
      }), "s");
  Add(m, "recover_s", PooledMedian(cycles, &CycleResult::recover_s), "s");
  Add(m, "scm_bytes_per_key", MedianOf(cycles, [](const CycleResult& c) {
        return c.scm_bytes_per_key;
      }), "B");
}


double PerOp(double total, double ops) { return ops > 0 ? total / ops : 0; }

void PerLayer(const Workload& w, const std::vector<const CycleResult*>& traced,
              const std::vector<const CycleResult*>& plain, Metrics* m) {
  TraceBuffer tr;
  std::map<std::string, uint64_t> idx, netc;
  double ops = 0;
  uint64_t flush_ns = 0, read_ns = 0, conn_ns = 0, server_flushes = 0;
  std::vector<uint32_t> rtt;
  for (const CycleResult* c : traced) {
    ops += c->ops;
    tr.Add(c->trace);
    for (const auto& [k, v] : c->index_counters) idx[k] += v;
    for (const auto& [k, v] : c->net_counters) netc[k] += v;
    server_flushes += c->server_flushes;
    for (const WorkerResult& r : c->workers) {
      flush_ns += r.flush_ns;
      read_ns += r.read_ns;
      conn_ns += r.end_ns - c->start_ns;
      rtt.insert(rtt.end(), r.rtt.begin(), r.rtt.end());
    }
  }
  const double gets = tr.core_ns[kGet].size();
  const double puts = tr.core_ns[kPut].size();
  Add(m, "scm.read_misses_per_get", PerOp(tr.get_read_misses, gets), "count");
  Add(m, "scm.flushed_lines_per_put", PerOp(tr.put_flushed_lines, puts),
      "count");
  Add(m, "scm.fences_per_put", PerOp(tr.put_fences, puts), "count");
  Add(m, "scm.allocs_per_put", PerOp(tr.put_allocs, puts), "count");
  Add(m, "scm.pool_open_s", PooledMedian(traced, &CycleResult::pool_open_s),
      "s");
  Add(m, "htm.commits_per_op", PerOp(idx["htm.commits"], ops), "count");
  Add(m, "htm.conflict_aborts_per_kop",
      PerOp(1000.0 * idx["htm.aborts_conflict"], ops), "count");
  Add(m, "htm.explicit_aborts_per_kop",
      PerOp(1000.0 * idx["htm.aborts_explicit"], ops), "count");
  Add(m, "htm.fallbacks_per_kop", PerOp(1000.0 * idx["htm.fallbacks"], ops),
      "count");
  Add(m, "core.rebuild_s",
      PooledMedian(traced, &CycleResult::core_rebuild_s),
      "s");
  Add(m, "core.dram_bytes_per_key", MedianOf(traced, [](const CycleResult& c) {
        return c.dram_bytes_per_key;
      }), "B");
  static const char* kCore[kNumKinds] = {"core.get_us_p50", "core.put_us_p50",
                                         "core.scan_us_p50"};
  for (int k = 0; k < kNumKinds; ++k) {
    const uint64_t n = tr.core_ns[k].size();
    Add(m, kCore[k], Percentile(&tr.core_ns[k], 0.50) * 1e-3, "us", n);
  }
  const double traced_ops_s = OpsPerSecond(traced);
  const double plain_ops_s = OpsPerSecond(plain);
  Add(m, "trace.ops_per_s", traced_ops_s, "1/s");
  Add(m, "trace.untraced_ops_per_s", plain_ops_s, "1/s");
  Add(m, "trace.overhead_pct",
      plain_ops_s > 0 ? 100.0 * (1.0 - traced_ops_s / plain_ops_s) : 0, "%");
  if (!w.wire) return;

  // serve-wire only: the engine and the wire exist on no other workload.
  Add(m, "engine.self_us_per_get",
      PerOp(tr.engine_self_ns[kGet] * 1e-3, tr.engine_ops[kGet]), "us");
  Add(m, "engine.self_us_per_scan",
      PerOp(tr.engine_self_ns[kScan] * 1e-3, tr.engine_ops[kScan]), "us");
  Add(m, "engine.shard_rows_per_scan_row",
      PerOp(tr.core_scan_rows, tr.engine_scan_rows), "count");
  Add(m, "engine.rebuild_s",
      PooledMedian(traced, &CycleResult::engine_rebuild_s), "s");
  const uint64_t n = rtt.size();
  Add(m, "net.rtt_us_p50", Percentile(&rtt, 0.50) * 1e-3, "us", n);
  double index_ns = 0;
  for (int k = 0; k < kNumKinds; ++k) index_ns += tr.engine_ns[k];
  // Each connection is served by its own IO thread and keeps it busy, so a
  // connection's time per op minus the index time per op is what the wire
  // layer (codec, epoll, syscalls, waits) costs that thread.
  Add(m, "net.self_us_per_op", PerOp((conn_ns - index_ns) * 1e-3, ops), "us");
  Add(m, "net.client_flush_us_per_op", PerOp(flush_ns * 1e-3, ops), "us");
  Add(m, "net.client_read_us_per_op", PerOp(read_ns * 1e-3, ops), "us");
  Add(m, "net.bytes_per_op",
      PerOp(netc["net.bytes_in"] + netc["net.bytes_out"], ops), "B");
  Add(m, "net.requests_per_flush", PerOp(ops, server_flushes), "count");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string pool_dir = ".";
  bool toy = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (flag != "--toy") {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a->trace = value == "1";
    } else if (flag == "--pool-dir") {
      a->pool_dir = value;
    } else if (flag == "--toy") {
      a->toy = true;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

template <typename Space, typename CycleFn>
std::vector<CycleResult> RunCycles(const Args& a, const Workload& w,
                                   const CycleFn& run_cycle,
                                   Verdict* verdict) {
  const KeyGen g(a.seed);
  Model<Space> model;
  model.Build(g, w.preload);
  std::vector<CycleResult> cycles;
  const uint64_t deadline =
      NowNanos() + static_cast<uint64_t>(a.seconds * 1e9);
  uint64_t longest = 0;
  for (uint64_t cycle = 0; verdict->ok(); ++cycle) {
    // At least two cycles; then only cycles that end before the deadline.
    if (cycle >= 2 && NowNanos() + longest > deadline) break;
    const bool traced = a.trace && cycle % 2 == 1;
    const std::string prefix = a.pool_dir + "/perfbench_" +
                               std::to_string(::getpid()) + "_" +
                               std::to_string(cycle);
    const uint64_t t0 = NowNanos();
    cycles.push_back(
        run_cycle(w, g, model, a.seed, cycle, traced, prefix, verdict));
    longest = std::max(longest, NowNanos() - t0);
  }
  return cycles;
}

int Main(int argc, char** argv) {
  Args a;
  Workload w;
  if (!ParseArgs(argc, argv, &a) || !MakeWorkload(a.workload, a.toy, &w)) {
    std::fprintf(stderr,
                 "usage: fptree_perfbench --workload "
                 "lookup-fixed|ingest-var|serve-wire --seed N --seconds S "
                 "--trace 0|1 [--pool-dir DIR] [--toy]\n");
    return 2;
  }
  // Pools are sized well below common file-size limits; say so plainly
  // rather than die of SIGXFSZ in the middle of a cycle.
  rlimit fsize{};
  if (::getrlimit(RLIMIT_FSIZE, &fsize) == 0 &&
      fsize.rlim_cur != RLIM_INFINITY && fsize.rlim_cur < w.pool_bytes) {
    std::fprintf(stderr,
                 "perfbench: a %zu-byte pool file exceeds the file-size "
                 "limit of %llu bytes\n",
                 w.pool_bytes, static_cast<unsigned long long>(fsize.rlim_cur));
    return 2;
  }
  InitCpus();
  w.threads = CapToCpus(w.threads);
  // SCM cost is reported as exact line counts; the modeled latency spin is
  // calibrated once per process and would differ from run to run.
  fptree::scm::LatencyModel::Disable();
  RegisterTracedShard();

  Verdict verdict;
  std::vector<CycleResult> cycles;
  if (!w.var_keys) {
    cycles = RunCycles<FixedSpace>(a, w, InProcessCycle<FixedSpace>, &verdict);
  } else if (!w.wire) {
    cycles = RunCycles<VarSpace>(a, w, InProcessCycle<VarSpace>, &verdict);
  } else {
    cycles = RunCycles<VarSpace>(a, w, WireCycle, &verdict);
  }

  std::vector<const CycleResult*> plain, traced;
  uint64_t attempted = 0, failed = 0;
  for (const CycleResult& c : cycles) {
    (c.traced ? traced : plain).push_back(&c);
    attempted += c.ops;
    failed += c.failed;
  }
  Metrics m;
  if (a.trace) {
    PerLayer(w, traced, plain, &m);
  } else {
    EndToEnd(plain, &m);
  }

  std::printf("perfbench workload=%s seed=%llu trace=%d cycles=%zu "
              "threads=%u preload=%llu ops_per_thread=%llu\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              a.trace ? 1 : 0, cycles.size(), w.threads,
              static_cast<unsigned long long>(w.preload),
              static_cast<unsigned long long>(w.ops_per_thread));
  for (size_t i = 0; i < cycles.size(); ++i) {
    const CycleResult& c = cycles[i];
    std::printf("  cycle %zu%s: setup %.3f s, run %.3f s (%.0f ops/s), "
                "recover %.3f s\n",
                i, c.traced ? " (traced)" : "", c.setup_s, c.run_s,
                c.ops_per_s, Median(c.recover_s));
  }
  for (const auto& [name, metric] : m) {
    if (metric.samples > 0) {
      std::printf("  %-32s %14.6g %-6s (n=%llu)\n", name.c_str(), metric.value,
                  metric.unit.c_str(),
                  static_cast<unsigned long long>(metric.samples));
    } else {
      std::printf("  %-32s %14.6g %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  if (!verdict.ok()) {
    std::printf("  check failures: %llu; first: %s\n",
                static_cast<unsigned long long>(verdict.failures()),
                verdict.first().c_str());
  }
  std::string json = "{\"correct\": ";
  json += verdict.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", metric.value);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
            metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return verdict.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
