// Timing decorators for the traced perfbench run.
//
// The traced run measures layers from outside the program: it wraps index
// objects in Traced<> decorators that time every call and read the calling
// thread's SCM counters around it. Two roles:
//
//  * kCore wraps a tree (the index of an in-process workload, or each
//    shard's inner index on serve-wire, registered as an index name so the
//    sharded engine builds it). It records per-call durations and the SCM
//    lines read, flushed and allocated inside the call.
//  * kEngine wraps the sharded engine handed to the server. It records the
//    time inside the engine call and, by reading the same thread's core
//    time before and after, the engine's self time.
//
// Accumulators live in per-thread TraceBuffers owned by the Tracer, so the
// server's IO threads can exit before their numbers are read.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "index/kv_index.h"
#include "scm/stats.h"
#include "util/timer.h"

namespace perfbench {

enum OpKind { kGet = 0, kPut = 1, kScan = 2, kNumKinds = 3 };

/// One thread's trace accumulators.
struct TraceBuffer {
  // Innermost index (core) calls.
  std::vector<uint32_t> core_ns[kNumKinds];
  uint64_t core_total_ns = 0;  // running sum, read by the engine decorator
  uint64_t core_scan_rows = 0;
  uint64_t get_read_misses = 0;
  uint64_t put_flushed_lines = 0;
  uint64_t put_fences = 0;
  uint64_t put_allocs = 0;
  // Engine calls (the index handed to the server).
  uint64_t engine_ns[kNumKinds] = {};
  uint64_t engine_self_ns[kNumKinds] = {};
  uint64_t engine_ops[kNumKinds] = {};
  uint64_t engine_scan_rows = 0;

  void Add(const TraceBuffer& o) {
    for (int k = 0; k < kNumKinds; ++k) {
      core_ns[k].insert(core_ns[k].end(), o.core_ns[k].begin(),
                        o.core_ns[k].end());
      engine_ns[k] += o.engine_ns[k];
      engine_self_ns[k] += o.engine_self_ns[k];
      engine_ops[k] += o.engine_ops[k];
    }
    core_total_ns += o.core_total_ns;
    core_scan_rows += o.core_scan_rows;
    get_read_misses += o.get_read_misses;
    put_flushed_lines += o.put_flushed_lines;
    put_fences += o.put_fences;
    put_allocs += o.put_allocs;
    engine_scan_rows += o.engine_scan_rows;
  }
};

/// Owner of every thread's TraceBuffer.
class Tracer {
 public:
  static Tracer& Get() {
    static Tracer* t = new Tracer;
    return *t;
  }

  /// The calling thread's buffer for the current epoch.
  TraceBuffer& Local() {
    thread_local TraceBuffer* buf = nullptr;
    thread_local uint64_t buf_epoch = 0;
    const uint64_t e = epoch_.load(std::memory_order_acquire);
    if (buf_epoch != e) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<TraceBuffer>());
      buf = buffers_.back().get();
      buf_epoch = e;
    }
    return *buf;
  }

  /// Drops every buffer. Call only while no traced call runs.
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.clear();
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Sum of the buffers filled since the last Reset. Call only after the
  /// threads that filled them were joined.
  TraceBuffer Collect() {
    std::lock_guard<std::mutex> lock(mu_);
    TraceBuffer total;
    for (const auto& b : buffers_) total.Add(*b);
    return total;
  }

 private:
  Tracer() = default;
  std::mutex mu_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
  std::atomic<uint64_t> epoch_{1};
};

enum class Role { kCore, kEngine };

/// Times a scan cursor of the engine role: the calls into it and the core
/// time they contain, recorded once on Close().
template <typename Cursor, typename CursorKey>
class TimedCursor final : public Cursor {
 public:
  TimedCursor(std::unique_ptr<Cursor> inner, uint64_t ns, uint64_t core_ns)
      : inner_(std::move(inner)), ns_(ns), core_ns_(core_ns) {}
  ~TimedCursor() override { Close(); }

  bool Next(CursorKey* key, uint64_t* value) override {
    TraceBuffer& b = Tracer::Get().Local();
    const uint64_t core0 = b.core_total_ns;
    const uint64_t t0 = fptree::NowNanos();
    bool r = inner_->Next(key, value);
    ns_ += fptree::NowNanos() - t0;
    core_ns_ += b.core_total_ns - core0;
    if (r) ++rows_;
    return r;
  }

  void Close() override {
    if (closed_) return;
    closed_ = true;
    TraceBuffer& b = Tracer::Get().Local();
    const uint64_t core0 = b.core_total_ns;
    const uint64_t t0 = fptree::NowNanos();
    inner_->Close();
    ns_ += fptree::NowNanos() - t0;
    core_ns_ += b.core_total_ns - core0;
    b.engine_ns[kScan] += ns_;
    b.engine_self_ns[kScan] += ns_ - core_ns_;
    ++b.engine_ops[kScan];
    b.engine_scan_rows += rows_;
  }

 private:
  std::unique_ptr<Cursor> inner_;
  uint64_t ns_;
  uint64_t core_ns_;
  uint64_t rows_ = 0;
  bool closed_ = false;
};

/// Timing decorator over a KVIndex or VarIndex; see the file comment.
template <typename Base, typename KeyArg, typename CursorKey>
class Traced final : public Base {
 public:
  using Cursor = typename Base::ScanCursor;

  Traced(std::unique_ptr<Base> inner, Role role)
      : inner_(std::move(inner)), role_(role) {}

  bool Find(KeyArg key, uint64_t* value) override {
    return Timed(kGet, [&] { return inner_->Find(key, value); });
  }
  bool Insert(KeyArg key, uint64_t value) override {
    return Timed(kPut, [&] { return inner_->Insert(key, value); });
  }
  bool Update(KeyArg key, uint64_t value) override {
    return Timed(kPut, [&] { return inner_->Update(key, value); });
  }
  bool Erase(KeyArg key) override {
    return Timed(kPut, [&] { return inner_->Erase(key); });
  }
  bool Upsert(KeyArg key, uint64_t value) override {
    return Timed(kPut, [&] { return inner_->Upsert(key, value); });
  }
  fptree::Status UpsertChecked(KeyArg key, uint64_t value,
                               bool* inserted) override {
    return Timed(kPut,
                 [&] { return inner_->UpsertChecked(key, value, inserted); });
  }
  size_t RangeScan(KeyArg start, size_t limit,
                   const typename Base::ScanCallback& cb) override {
    size_t n =
        Timed(kScan, [&] { return inner_->RangeScan(start, limit, cb); });
    TraceBuffer& b = Tracer::Get().Local();
    if (role_ == Role::kCore) {
      b.core_scan_rows += n;
    } else {
      b.engine_scan_rows += n;
    }
    return n;
  }
  /// The core role keeps the interface's default cursor, which refills
  /// through RangeScan exactly as the undecorated tree's does; the engine
  /// role times the engine's own (merging) cursor.
  std::unique_ptr<Cursor> OpenScan(KeyArg start, size_t limit) override {
    if (role_ == Role::kCore) return Base::OpenScan(start, limit);
    TraceBuffer& b = Tracer::Get().Local();
    const uint64_t core0 = b.core_total_ns;
    const uint64_t t0 = fptree::NowNanos();
    auto cursor = inner_->OpenScan(start, limit);
    const uint64_t ns = fptree::NowNanos() - t0;
    return std::make_unique<TimedCursor<Cursor, CursorKey>>(
        std::move(cursor), ns, b.core_total_ns - core0);
  }
  size_t Size() const override { return inner_->Size(); }
  uint64_t DramBytes() const override { return inner_->DramBytes(); }
  uint64_t ScmBytes() const override { return inner_->ScmBytes(); }
  uint64_t RecoveryNanos() const override { return inner_->RecoveryNanos(); }
  fptree::obs::Snapshot Stats() const override { return inner_->Stats(); }
  bool concurrent() const override { return inner_->concurrent(); }
  bool CheckInvariants(std::string* why) override {
    return inner_->CheckInvariants(why);
  }

 private:
  template <typename Fn>
  auto Timed(OpKind kind, const Fn& fn) {
    TraceBuffer& b = Tracer::Get().Local();
    const fptree::scm::StatsCounters s0 = fptree::scm::ThreadStats();
    const uint64_t core0 = b.core_total_ns;
    const uint64_t t0 = fptree::NowNanos();
    auto r = fn();
    const uint64_t dt = fptree::NowNanos() - t0;
    if (role_ == Role::kCore) {
      const fptree::scm::StatsCounters& s1 = fptree::scm::ThreadStats();
      b.core_ns[kind].push_back(static_cast<uint32_t>(dt));
      b.core_total_ns += dt;
      if (kind == kGet) {
        b.get_read_misses += s1.scm_read_misses - s0.scm_read_misses;
      } else if (kind == kPut) {
        b.put_flushed_lines += s1.flushed_lines - s0.flushed_lines;
        b.put_fences += s1.fences - s0.fences;
        b.put_allocs += s1.allocations - s0.allocations;
      }
    } else {
      b.engine_ns[kind] += dt;
      b.engine_self_ns[kind] += dt - (b.core_total_ns - core0);
      ++b.engine_ops[kind];
    }
    return r;
  }

  std::unique_ptr<Base> inner_;
  const Role role_;
};

using TracedFixed = Traced<fptree::index::KVIndex, uint64_t, uint64_t>;
using TracedVar =
    Traced<fptree::index::VarIndex, std::string_view, std::string>;

}  // namespace perfbench
