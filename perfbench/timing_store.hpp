#pragma once
/// \file timing_store.hpp
/// \brief Pass-through CheckpointStore decorator that times every call the
///        checkpoint stack makes into the store, from outside the library.
///
/// The decorator forwards each call unchanged to the wrapped store and only
/// reads the steady clock around it, so stored bytes and every simulation
/// decision are identical with and without it (perfbench_selftest proves
/// both). It is handed to ResilientRunner through
/// ResilienceConfig::store_factory, or wrapped around a DiskStore for a
/// CheckpointManager directly.
///
/// Besides per-call seconds it records two spans per checkpoint version:
///  - the write span, from open_write_pending() (or write()/write_pending())
///    to the sink's finish(): the frames are encoded while they stream into
///    the sink, so this is the latency of producing one checkpoint;
///  - the read span, from open_read() (or read()) until the source is
///    destroyed: frames are decoded while they stream out, so this is the
///    latency of one recovery read.
/// Calls from a thread other than the one that built the store (the async
/// drain) are tallied separately, since they overlap the solver.

#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "lck.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seconds and bytes of one kind of store call.
struct OpTally {
  double seconds = 0.0;
  std::size_t bytes = 0;
  std::size_t calls = 0;
};

/// What a TimingStore saw. Owned by the caller so that it outlives the
/// runner (which owns, and destroys, the store). Thread-safe.
class StoreLog {
 public:
  /// Snapshot of the tallies; `main` holds calls made on the thread that
  /// built the store, `background` the others.
  struct Tallies {
    OpTally write, commit, read, remove;
    double main_seconds = 0.0;        ///< all timed calls, owner thread
    double background_seconds = 0.0;  ///< all timed calls, other threads
    std::vector<double> write_spans;  ///< seconds per sealed checkpoint
    std::vector<std::size_t> write_span_bytes;
    std::vector<bool> write_span_main;
    std::vector<double> read_spans;  ///< seconds per recovery read
  };

  void add(OpTally Tallies::*kind, double seconds, std::size_t bytes,
           bool main) {
    std::lock_guard lock(mu_);
    OpTally& t = t_.*kind;
    t.seconds += seconds;
    t.bytes += bytes;
    ++t.calls;
    (main ? t_.main_seconds : t_.background_seconds) += seconds;
  }
  void write_span(double seconds, std::size_t bytes, bool main) {
    std::lock_guard lock(mu_);
    t_.write_spans.push_back(seconds);
    t_.write_span_bytes.push_back(bytes);
    t_.write_span_main.push_back(main);
  }
  void read_span(double seconds) {
    std::lock_guard lock(mu_);
    t_.read_spans.push_back(seconds);
  }
  [[nodiscard]] Tallies tallies() const {
    std::lock_guard lock(mu_);
    return t_;
  }

 private:
  mutable std::mutex mu_;
  Tallies t_;
};

class TimingStore final : public lck::CheckpointStore {
 public:
  TimingStore(std::unique_ptr<lck::CheckpointStore> inner, StoreLog& log)
      : inner_(std::move(inner)), log_(log) {}

  void write(int version, std::span<const lck::byte_t> data) override {
    const auto t0 = Clock::now();
    inner_->write(version, data);
    const double s = since(t0);
    log_.add(&StoreLog::Tallies::write, s, data.size(), on_owner());
    log_.write_span(s, data.size(), on_owner());
  }
  [[nodiscard]] std::vector<lck::byte_t> read(int version) const override {
    const auto t0 = Clock::now();
    auto data = inner_->read(version);
    const double s = since(t0);
    log_.add(&StoreLog::Tallies::read, s, data.size(), on_owner());
    log_.read_span(s);
    return data;
  }
  [[nodiscard]] bool exists(int version) const override {
    return inner_->exists(version);
  }
  void remove(int version) override {
    const auto t0 = Clock::now();
    inner_->remove(version);
    log_.add(&StoreLog::Tallies::remove, since(t0), 0, on_owner());
  }
  [[nodiscard]] int latest_version() const override {
    return inner_->latest_version();
  }
  void write_pending(int version, std::span<const lck::byte_t> data) override {
    const auto t0 = Clock::now();
    inner_->write_pending(version, data);
    const double s = since(t0);
    log_.add(&StoreLog::Tallies::write, s, data.size(), on_owner());
    log_.write_span(s, data.size(), on_owner());
  }
  void commit(int version) override {
    const auto t0 = Clock::now();
    inner_->commit(version);
    log_.add(&StoreLog::Tallies::commit, since(t0), 0, on_owner());
  }
  void abort(int version) override { inner_->abort(version); }
  [[nodiscard]] bool has_pending(int version) const override {
    return inner_->has_pending(version);
  }
  [[nodiscard]] std::unique_ptr<lck::ByteSink> open_write_pending(
      int version) override {
    const auto t0 = Clock::now();
    auto sink = inner_->open_write_pending(version);
    const bool main = on_owner();
    log_.add(&StoreLog::Tallies::write, since(t0), 0, main);
    return std::make_unique<Sink>(std::move(sink), log_, t0, main);
  }
  [[nodiscard]] std::unique_ptr<lck::ByteSource> open_read(
      int version) const override {
    const auto t0 = Clock::now();
    auto src = inner_->open_read(version);
    const bool main = on_owner();
    log_.add(&StoreLog::Tallies::read, since(t0), 0, main);
    return std::make_unique<Source>(std::move(src), log_, t0, main);
  }
  void set_observability(lck::obs::Sink sink) override {
    inner_->set_observability(sink);
  }

 private:
  class Sink final : public lck::ByteSink {
   public:
    Sink(std::unique_ptr<lck::ByteSink> inner, StoreLog& log,
         Clock::time_point opened, bool main)
        : inner_(std::move(inner)), log_(log), opened_(opened), main_(main) {}
    void append(std::span<const lck::byte_t> bytes) override {
      const auto t0 = Clock::now();
      inner_->append(bytes);
      log_.add(&StoreLog::Tallies::write, since(t0), bytes.size(), main_);
      bytes_ += bytes.size();
    }
    void finish() override {
      const auto t0 = Clock::now();
      inner_->finish();
      log_.add(&StoreLog::Tallies::write, since(t0), 0, main_);
      log_.write_span(since(opened_), bytes_, main_);
    }

   private:
    std::unique_ptr<lck::ByteSink> inner_;
    StoreLog& log_;
    Clock::time_point opened_;
    bool main_;
    std::size_t bytes_ = 0;
  };

  class Source final : public lck::ByteSource {
   public:
    Source(std::unique_ptr<lck::ByteSource> inner, StoreLog& log,
           Clock::time_point opened, bool main)
        : inner_(std::move(inner)), log_(log), opened_(opened), main_(main) {}
    ~Source() override { log_.read_span(since(opened_)); }
    Source(const Source&) = delete;
    Source& operator=(const Source&) = delete;
    [[nodiscard]] std::size_t read_some(std::span<lck::byte_t> dst) override {
      const auto t0 = Clock::now();
      const std::size_t n = inner_->read_some(dst);
      log_.add(&StoreLog::Tallies::read, since(t0), n, main_);
      return n;
    }

   private:
    std::unique_ptr<lck::ByteSource> inner_;
    StoreLog& log_;
    Clock::time_point opened_;
    bool main_;
  };

  [[nodiscard]] bool on_owner() const {
    return std::this_thread::get_id() == owner_;
  }

  std::unique_ptr<lck::CheckpointStore> inner_;
  StoreLog& log_;
  std::thread::id owner_ = std::this_thread::get_id();
};

/// Field-for-field equality of two ResilienceResults; doubles compare
/// bitwise-equal (same value, no tolerance).
inline bool same_result(const lck::ResilienceResult& a,
                        const lck::ResilienceResult& b) {
  return a.converged == b.converged && a.executed_steps == b.executed_steps &&
         a.convergence_iteration == b.convergence_iteration &&
         a.final_residual_norm == b.final_residual_norm &&
         a.virtual_seconds == b.virtual_seconds && a.failures == b.failures &&
         a.checkpoints == b.checkpoints && a.recoveries == b.recoveries &&
         a.aborted_drains == b.aborted_drains &&
         a.ckpt_seconds_total == b.ckpt_seconds_total &&
         a.ckpt_drain_seconds_total == b.ckpt_drain_seconds_total &&
         a.backpressure_seconds_total == b.backpressure_seconds_total &&
         a.recovery_seconds_total == b.recovery_seconds_total &&
         a.mean_ckpt_seconds == b.mean_ckpt_seconds &&
         a.mean_recovery_seconds == b.mean_recovery_seconds &&
         a.failures_by_severity == b.failures_by_severity &&
         a.recoveries_by_tier == b.recoveries_by_tier &&
         a.promotions_completed == b.promotions_completed &&
         a.promotion_seconds_total == b.promotion_seconds_total &&
         a.mean_ckpt_stored_bytes == b.mean_ckpt_stored_bytes &&
         a.compression_ratio == b.compression_ratio &&
         a.delta_bytes_total == b.delta_bytes_total &&
         a.chunks_deduped == b.chunks_deduped &&
         a.full_checkpoints == b.full_checkpoints &&
         a.policy_interval_final == b.policy_interval_final &&
         a.interval_adjustments == b.interval_adjustments;
}

}  // namespace perfbench
