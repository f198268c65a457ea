/// Host-measured resilient-solve benchmark program (see README.md).
///
///   lckbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///            --dir <scratch dir>
///
/// Runs one workload against a real DiskStore under <scratch dir> and prints
/// one JSON object of raw samples, counts and correctness checks on stdout.
/// run.py builds this binary, fixes its thread settings, and turns the
/// samples into the benchmark's metrics. Workloads:
///
///  - cg-lossy-sync      CG + SZ (pointwise-relative 1e-4), sync checkpoints,
///                       several injected failures (paper Algorithm 2)
///  - cg-lossless-async  CG + deflate over x and p, staged async checkpoints
///  - ckpt-restart       CheckpointManager checkpoint() + recover() cycles of
///                       CG's x and p, traditional (no codec)
///
/// The library is reached through its public API (lck.hpp; simd.hpp only to
/// record the dispatched ISA). Every layer is timed from here, around the
/// calls into it.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/byte_buffer.hpp"
#include "common/simd.hpp"
#include "lck.hpp"
#include "timing_store.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace fs = std::filesystem;
using namespace lck;
using perfbench::Clock;
using perfbench::since;
using perfbench::StoreLog;
using perfbench::TimingStore;

namespace {

// ----- workloads -------------------------------------------------------------

/// Per-workload knobs. Times are fractions of the failure-free baseline
/// (the paper's CG: 35 min at 2,048 ranks).
struct WorkloadSpec {
  std::string name;
  index_t grid = 0;  ///< Poisson grid n (matrix n³)
  CkptScheme scheme = CkptScheme::kLossy;
  CkptMode mode = CkptMode::kSync;
  double mtti_frac = 0.0;      ///< MTTI / baseline; 0: no resilient solve
  double interval_frac = 0.0;  ///< checkpoint interval / baseline
};

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      {"cg-lossy-sync", 64, CkptScheme::kLossy, CkptMode::kSync, 0.4, 0.1},
      {"cg-lossless-async", 48, CkptScheme::kLossless, CkptMode::kAsync, 0.5,
       0.12},
      {"ckpt-restart", 80, CkptScheme::kTraditional, CkptMode::kSync, 0.0,
       0.0},
  };
  return all;
}

constexpr double kRtol = 1e-7;
/// The failure schedule is part of the workload, not of the seed: every run
/// replays the same exponential (paper §5.4) failure draw, so each seed does
/// the same checkpoint, failure and rollback work and runs stay comparable.
constexpr std::uint64_t kFailureSeed = 7;
/// Repetitions of the set-up; setup_s is their median.
constexpr int kSetupReps = 5;
/// CG iteration at which set-up snapshots x, p and the scalar state.
constexpr index_t kCaptureIteration = 40;

/// SplitMix64: the benchmark's own seeded input generator.
struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// The set-up every workload pays: Poisson SPD problem + block-Jacobi/ILU0,
/// a seeded right-hand side, and the failure-free baseline CG solve that
/// sets N. Also keeps copies of CG's x and p (the traditional scheme's
/// dynamic state) and scalar state from iteration kCaptureIteration.
struct Setup {
  LocalProblem p;
  index_t n_base = 0;
  Vector x_mid, p_mid;
  std::vector<byte_t> scalars_mid;
};

Setup make_setup(const WorkloadSpec& w, std::uint64_t seed) {
  Setup s{make_local_problem("cg", w.grid, kRtol), 0, {}, {}, {}};
  // b = A·x* with x* the smooth reference solution; scale each entry by a
  // seeded factor in [0.99, 1.01] so every seed solves its own system.
  SplitMix rng{seed};
  for (double& v : s.p.b) v *= 1.0 + 1e-2 * (2.0 * rng.uniform() - 1.0);
  auto solver = s.p.make_solver();
  solver->restart(Vector(s.p.b.size(), 0.0));
  while (!solver->converged() &&
         solver->iteration() < s.p.spec.options.max_iterations) {
    solver->step();
    if (solver->iteration() == kCaptureIteration) {
      const auto vars = solver->checkpoint_vectors();
      s.x_mid = *vars.at(0).data;
      s.p_mid = *vars.at(1).data;
      ByteWriter out;
      solver->save_scalars(out);
      s.scalars_mid = std::move(out).take();
    }
  }
  require(solver->converged(), "baseline solve did not converge");
  require(!s.x_mid.empty(), "baseline solve ended before the state capture");
  s.n_base = solver->iteration();
  return s;
}

ResilienceConfig runner_config(const WorkloadSpec& w, const Setup& s) {
  const PaperMethod paper = paper_cg();
  ResilienceConfig cfg;
  cfg.scheme = w.scheme;
  cfg.ckpt_mode = w.mode;
  cfg.compression.lossy = "sz";
  cfg.compression.lossy_eb = ErrorBound::pointwise_rel(1e-4);
  cfg.compression.lossless = "deflate";
  cfg.iteration_seconds =
      paper.baseline_seconds / static_cast<double>(s.n_base);
  cfg.dynamic_scale = table3_vector_bytes(2048) / s.p.vector_bytes();
  cfg.static_bytes = static_state_bytes(table3_vector_bytes(2048));
  cfg.failure.mtti_seconds = w.mtti_frac * paper.baseline_seconds;
  cfg.failure.seed = kFailureSeed;
  cfg.policy.interval_seconds = w.interval_frac * paper.baseline_seconds;
  return cfg;
}

/// Codec the workload's checkpoints use ("none" for the traditional
/// scheme) and how many vectors one checkpoint encodes.
std::string codec_of(const WorkloadSpec& w) {
  switch (w.scheme) {
    case CkptScheme::kLossy: return "sz";
    case CkptScheme::kLossless: return "deflate";
    case CkptScheme::kTraditional: break;
  }
  return "none";
}
double vectors_of(const WorkloadSpec& w) {
  return w.scheme == CkptScheme::kLossy ? 1.0 : 2.0;
}

// ----- small utilities -------------------------------------------------------

/// Minimal JSON object writer (numbers at full precision).
class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(k, std::isfinite(v) ? buf : "null");
  }
  Json& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  Json& str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) q += c;
    }
    return raw(k, q + "\"");
  }
  Json& arr(const std::string& k, const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    return raw(k, s + "]");
  }
  Json& obj(const std::string& k, const Json& o) { return raw(k, o.str()); }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  Json& raw(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + k + "\": " + v;
    return *this;
  }
  std::string body_;
};

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// Median seconds of `fn` over `reps` calls.
double time_median(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(since(t0));
  }
  return median(t);
}

/// Correctness checks of one run: name -> passed every time it was checked.
struct Checks {
  std::map<std::string, bool> ok;
  void expect(const std::string& name, bool pass) {
    auto [it, fresh] = ok.emplace(name, pass);
    if (!fresh) it->second = it->second && pass;
  }
  [[nodiscard]] Json json() const {
    Json j;
    for (const auto& [k, v] : ok) j.boolean(k, v);
    return j;
  }
};

/// A fresh, empty directory for one store.
std::string fresh_dir(const std::string& root, const std::string& leaf) {
  const fs::path d = fs::path(root) / leaf;
  fs::remove_all(d);
  fs::create_directories(d);
  return d.string();
}

// ----- per-layer figures -----------------------------------------------------

/// Host cost per call of the compute layers, timed directly on the
/// workload's own inputs (median of repeated calls).
struct LayerRates {
  double spmv_s = 0.0;      ///< one CsrMatrix::multiply
  double spmv_bytes = 0.0;  ///< computed bytes one SpMV moves
  double step_s = 0.0;      ///< one IterativeSolver::step (CG)
  double restart_s = 0.0;   ///< one IterativeSolver::restart
  /// Codec seconds per raw byte and stored/raw, keyed by codec name.
  std::map<std::string, double> enc_s_per_byte, dec_s_per_byte, ratio;
};

LayerRates measure_rates(const Setup& s) {
  LayerRates r;
  const CsrMatrix& a = s.p.a;
  const Vector& x = s.x_mid;
  Vector y(x.size());
  a.multiply(x, y);  // warm
  r.spmv_s = time_median(15, [&] { a.multiply(x, y); });
  const double rows = static_cast<double>(a.rows());
  const double nnz = static_cast<double>(a.nnz());
  // Values + column indices + row pointers + x read once + y written.
  r.spmv_bytes = nnz * (sizeof(double) + sizeof(index_t)) +
                 (rows + 1) * sizeof(index_t) + 2 * rows * sizeof(double);

  auto solver = s.p.make_solver();
  solver->restart(Vector(x.size(), 0.0));
  const int steps = 20;
  const auto t0 = Clock::now();
  for (int i = 0; i < steps; ++i) solver->step();
  r.step_s = since(t0) / steps;
  r.restart_s = time_median(5, [&] { solver->restart(x); });

  const double raw = static_cast<double>(x.size() * sizeof(double));
  Vector out(x.size());
  for (const std::string name : {"sz", "deflate", "none"}) {
    const auto c = make_compressor(name, ErrorBound::pointwise_rel(1e-4));
    std::vector<byte_t> stream = c->compress(x);
    r.enc_s_per_byte[name] =
        time_median(3, [&] { stream = c->compress(x); }) / raw;
    r.dec_s_per_byte[name] =
        time_median(3, [&] { c->decompress(stream, out); }) / raw;
    r.ratio[name] = static_cast<double>(stream.size()) / raw;
  }
  return r;
}

/// The per-layer metrics of a traced run, plus the self-time split of its
/// wall time (wall = Σ self + core.other_s).
struct Layers {
  // sparse / solvers
  double spmv_s = 0, spmv_calls = 0, spmv_gbps = 0, step_ms = 0, steps = 0,
         rollback_steps = 0, restart_s = 0;
  // compress
  double sz_enc_mbps = 0, sz_dec_mbps = 0, deflate_enc_mbps = 0,
         deflate_dec_mbps = 0, encode_s = 0, decode_s = 0, ratio = 0;
  // ckpt
  double stage_s = 0, checkpoint_s = 0, recover_s = 0, store_write_s = 0,
         store_write_bytes = 0, store_commit_s = 0, store_read_s = 0,
         store_read_bytes = 0, frame_s = 0;
  // core / sim / obs
  double other_s = 0, checkpoints = 0, recoveries = 0, aborted_drains = 0,
         hom_encode = 0, hom_write = 0, hom_read = 0, trace_overhead = 0;
  // self-time split
  double wall_s = 0, self_sparse = 0, self_solvers = 0, self_compress = 0,
         self_ckpt = 0, self_store = 0, drain_wait = 0;

  void set_rates(const LayerRates& r, const std::string& codec) {
    spmv_gbps = r.spmv_bytes / r.spmv_s / 1e9;
    step_ms = 1e3 * r.step_s;
    sz_enc_mbps = 1e-6 / r.enc_s_per_byte.at("sz");
    sz_dec_mbps = 1e-6 / r.dec_s_per_byte.at("sz");
    deflate_enc_mbps = 1e-6 / r.enc_s_per_byte.at("deflate");
    deflate_dec_mbps = 1e-6 / r.dec_s_per_byte.at("deflate");
    ratio = r.ratio.at(codec);
  }
  void set_store(const StoreLog::Tallies& t) {
    store_write_s = t.write.seconds;
    store_write_bytes = static_cast<double>(t.write.bytes);
    store_commit_s = t.commit.seconds;
    store_read_s = t.read.seconds;
    store_read_bytes = static_cast<double>(t.read.bytes);
  }
  /// Host seconds over the ClusterModel's seconds for the same local bytes
  /// on one rank (the model's per-rank calibration).
  void set_model(const LayerRates& r, const std::string& codec,
                 double raw_bytes, const StoreLog::Tallies& t) {
    const ClusterModel one = ClusterModel{}.with_ranks(1);
    const std::string c = codec == "none" ? "sz" : codec;
    hom_encode = raw_bytes * r.enc_s_per_byte.at(c) /
                 (c == "sz" ? one.compress_seconds(raw_bytes)
                            : one.lossless_compress_seconds(raw_bytes));
    double model_write = 0.0;
    for (std::size_t b : t.write_span_bytes)
      model_write += one.write_seconds(static_cast<double>(b));
    const double reads = static_cast<double>(t.read_spans.size());
    const double model_read =
        reads > 0.0 ? reads * one.read_seconds(static_cast<double>(
                                  t.read.bytes) / reads)
                    : 0.0;
    hom_write = model_write > 0.0
                    ? (t.write.seconds + t.commit.seconds) / model_write
                    : 0.0;
    hom_read = model_read > 0.0 ? t.read.seconds / model_read : 0.0;
  }
  /// core.other_s is what no layer accounts for. In async mode the solver
  /// thread also waits for drains it must join; that wait (bounded by the
  /// drain thread's busy time `background_s`) is charged to ckpt first.
  void finish_other(double background_s = 0.0) {
    const double rest = wall_s - self_sparse - self_solvers - self_compress -
                        self_ckpt - self_store;
    drain_wait = std::clamp(rest, 0.0, background_s);
    other_s = rest - drain_wait;
  }

  [[nodiscard]] Json metrics() const {
    Json j;
    j.num("sparse.spmv_s", spmv_s)
        .num("sparse.spmv_calls", spmv_calls)
        .num("sparse.spmv_gbps", spmv_gbps)
        .num("solvers.step_ms", step_ms)
        .num("solvers.steps", steps)
        .num("solvers.rollback_steps", rollback_steps)
        .num("solvers.restart_s", restart_s)
        .num("compress.sz.encode_mbps", sz_enc_mbps)
        .num("compress.sz.decode_mbps", sz_dec_mbps)
        .num("compress.deflate.encode_mbps", deflate_enc_mbps)
        .num("compress.deflate.decode_mbps", deflate_dec_mbps)
        .num("compress.encode_s", encode_s)
        .num("compress.decode_s", decode_s)
        .num("compress.ratio", ratio)
        .num("ckpt.stage_s", stage_s)
        .num("ckpt.checkpoint_s", checkpoint_s)
        .num("ckpt.recover_s", recover_s)
        .num("ckpt.store_write_s", store_write_s)
        .num("ckpt.store_write_bytes", store_write_bytes)
        .num("ckpt.store_commit_s", store_commit_s)
        .num("ckpt.store_read_s", store_read_s)
        .num("ckpt.store_read_bytes", store_read_bytes)
        .num("ckpt.frame_s", frame_s)
        .num("core.other_s", other_s)
        .num("core.checkpoints", checkpoints)
        .num("core.recoveries", recoveries)
        .num("core.aborted_drains", aborted_drains)
        .num("sim.host_over_model.encode", hom_encode)
        .num("sim.host_over_model.write", hom_write)
        .num("sim.host_over_model.read", hom_read)
        .num("obs.trace_overhead", trace_overhead);
    return j;
  }
  [[nodiscard]] Json self_times() const {
    Json j;
    j.num("wall_s", wall_s)
        .num("sparse", self_sparse)
        .num("solvers", self_solvers)
        .num("compress", self_compress)
        .num("ckpt", self_ckpt)
        .num("ckpt.drain_wait", drain_wait)
        .num("ckpt.store", self_store)
        .num("core.other", other_s);
    return j;
  }
};

// ----- one run ---------------------------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;
};

/// Everything one run reports (raw samples; run.py derives the metrics).
struct RunSamples {
  std::vector<double> setup_s, unit_wall_s, ckpt_ms, restart_ms,
      stored_ratio;
  int attempted = 0;
  int failed = 0;
  double state_bytes = 0.0;
  Checks checks;
  Json extra;  ///< workload-specific figures
  Layers layers;
};

struct SolveSample {
  ResilienceResult res;
  double wall_s = 0.0;
  double true_residual = 0.0;
  StoreLog::Tallies store;
};

/// One resilient solve on a fresh DiskStore: host wall time of runner
/// construction + run(), the result, and what the store saw.
SolveSample resilient_solve(const Setup& s, ResilienceConfig cfg,
                            const std::string& dir, bool traced,
                            std::unique_ptr<obs::TraceRecorder>& trace) {
  StoreLog log;
  cfg.store_factory = [&log, dir] {
    return std::make_unique<TimingStore>(std::make_unique<DiskStore>(dir),
                                         log);
  };
  cfg.obs.metrics = traced;
  cfg.obs.trace = traced;
  auto solver = s.p.make_solver();
  SolveSample out;
  const auto t0 = Clock::now();
  {
    ResilientRunner runner(*solver, cfg);
    out.res = runner.run();
    out.wall_s = since(t0);
    if (traced) trace = runner.take_trace();
  }
  Vector r(s.p.b.size());
  out.true_residual = s.p.a.residual_norm2(s.p.b, solver->solution(), r);
  out.store = log.tallies();
  return out;
}

/// Median host seconds of one staged checkpoint's blocking copy (stage())
/// of the workload's state, timed directly.
double measure_stage(const Setup& s, const std::string& codec,
                     const std::string& dir) {
  const auto comp = make_compressor(codec);
  CheckpointManager m(std::make_unique<DiskStore>(dir), comp.get());
  Vector xs = s.x_mid, ps = s.p_mid;
  m.protect(0, "x", &xs);
  m.protect(1, "p", &ps);
  std::vector<double> st;
  for (int i = 0; i < 3; ++i) {
    const StageTicket t = m.stage();
    st.push_back(t.stage_seconds);
    (void)m.wait_drain(t.version);
    m.commit_version(t.version);
  }
  return median(st);
}

void solve_workload(const WorkloadSpec& w, const RunOptions& o,
                    const Setup& s, RunSamples& out) {
  const ResilienceConfig cfg = runner_config(w, s);
  out.state_bytes = vectors_of(w) * s.p.vector_bytes();
  const double tol =
      kRtol * std::sqrt(std::inner_product(s.p.b.begin(), s.p.b.end(),
                                           s.p.b.begin(), 0.0));

  // Timed phase: repeat the identical solve until the time is used up; a
  // traced run spends the first half untraced and the second half traced.
  std::vector<SolveSample> plain, traced;
  std::unique_ptr<obs::TraceRecorder> trace;
  const auto t0 = Clock::now();
  const double plain_budget = o.trace ? 0.5 * o.seconds : o.seconds;
  const auto run_one = [&](bool tr) {
    ++out.attempted;
    bool ok = false;
    try {
      SolveSample smp =
          resilient_solve(s, cfg, fresh_dir(o.dir, "solve"), tr, trace);
      const ResilienceResult& r = smp.res;
      // The recurrence residual must meet rtol·‖b‖; the true residual of
      // the returned x may drift above it only by recurrence round-off.
      const bool conv = r.converged && r.final_residual_norm <= tol &&
                        smp.true_residual <= 2.0 * tol;
      out.checks.expect("converged_within_rtol", conv);
      const bool exact = w.scheme == CkptScheme::kLossy ||
                         r.convergence_iteration == s.n_base;
      out.checks.expect("lossless_extra_iters_zero", exact);
      const bool same = perfbench::same_result(
          r, plain.empty() ? r : plain.front().res);
      out.checks.expect(tr ? "traced_result_equal" : "deterministic_repeats",
                        same);
      ok = conv && exact && same;
      (tr ? traced : plain).push_back(std::move(smp));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "lckbench: solve %d failed: %s\n", out.attempted,
                   e.what());
      out.checks.expect("no_exception", false);
    }
    if (!ok) ++out.failed;
  };
  do {
    run_one(false);
  } while ((since(t0) < plain_budget || plain.size() < 3) &&
           out.attempted < 1000);
  while (o.trace && (since(t0) < o.seconds || traced.size() < 3) &&
         out.attempted < 1000)
    run_one(true);
  fs::remove_all(fs::path(o.dir) / "solve");
  if (plain.empty()) return;

  for (const SolveSample& smp : plain) {
    out.unit_wall_s.push_back(smp.wall_s);
    const auto& st = smp.store;
    for (std::size_t i = 0; i < st.write_spans.size(); ++i) {
      out.ckpt_ms.push_back(1e3 * st.write_spans[i]);
      out.stored_ratio.push_back(
          static_cast<double>(st.write_span_bytes[i]) / out.state_bytes);
    }
    for (double t : st.read_spans) out.restart_ms.push_back(1e3 * t);
  }
  const ResilienceResult& r0 = plain.front().res;
  out.extra.num("baseline_iters", static_cast<double>(s.n_base))
      .num("convergence_iteration",
           static_cast<double>(r0.convergence_iteration))
      .num("extra_iters",
           static_cast<double>(r0.convergence_iteration - s.n_base))
      .num("executed_steps", static_cast<double>(r0.executed_steps))
      .num("checkpoints", r0.checkpoints)
      .num("recoveries", r0.recoveries)
      .num("failures", r0.failures)
      .num("aborted_drains", r0.aborted_drains)
      .num("virtual_s", r0.virtual_seconds)
      .num("true_residual_over_tol", plain.front().true_residual / tol);
  if (!o.trace || traced.empty()) return;

  // ----- per-layer decomposition of the last traced solve ------------------
  // The solver thread's self times: solver steps and restarts (direct
  // per-call cost × the run's exact call counts), codec work (direct
  // per-byte cost × bytes the run encoded/decoded), store calls (the
  // decorator's own clock), framing (write/read spans minus codec and
  // store), staging copies (direct stage() cost × stages). In async mode
  // the drain's codec and store work overlap the solver on another thread:
  // they are reported, and only the solver's wait for them enters the
  // wall-time identity.
  const std::string codec = codec_of(w);
  const LayerRates lr = measure_rates(s);
  const double stage_one =
      w.mode == CkptMode::kAsync
          ? measure_stage(s, codec, fresh_dir(o.dir, "stage"))
          : 0.0;
  fs::remove_all(fs::path(o.dir) / "stage");

  const SolveSample& tr = traced.back();
  const ResilienceResult& r = tr.res;
  const StoreLog::Tallies& st = tr.store;
  Layers& L = out.layers;
  L.set_rates(lr, codec);
  L.set_store(st);
  L.set_model(lr, codec, out.state_bytes, st);
  const double restarts = 1.0 + r.recoveries;
  L.steps = static_cast<double>(r.executed_steps);
  L.rollback_steps =
      static_cast<double>(r.executed_steps - r.convergence_iteration);
  L.spmv_calls = L.steps + restarts;  // a restart's fused residual is one
  L.spmv_s = L.spmv_calls * lr.spmv_s;
  L.restart_s = restarts * lr.restart_s;
  L.encode_s = static_cast<double>(st.write_spans.size()) * out.state_bytes *
               lr.enc_s_per_byte.at(codec);
  L.decode_s = static_cast<double>(st.read_spans.size()) * out.state_bytes *
               lr.dec_s_per_byte.at(codec);
  double span_main = 0.0, span_all = 0.0;
  for (std::size_t i = 0; i < st.write_spans.size(); ++i) {
    span_all += st.write_spans[i];
    if (st.write_span_main[i]) span_main += st.write_spans[i];
  }
  const double main_share = span_all > 0.0 ? span_main / span_all : 1.0;
  L.recover_s = sum(st.read_spans);
  L.checkpoint_s = span_all + st.commit.seconds;
  L.checkpoints = r.checkpoints;
  L.recoveries = r.recoveries;
  L.aborted_drains = r.aborted_drains;
  const double stages = w.mode == CkptMode::kAsync
                            ? static_cast<double>(r.checkpoints +
                                                  r.aborted_drains)
                            : 0.0;
  L.stage_s = stages * stage_one;

  L.wall_s = tr.wall_s;
  L.self_sparse = L.spmv_s;
  L.self_solvers = L.steps * lr.step_s + L.restart_s - L.spmv_s;
  L.self_compress = L.encode_s * main_share + L.decode_s;
  L.self_store = st.main_seconds;
  const double store_in_spans =
      st.main_seconds - st.commit.seconds - st.remove.seconds;
  L.frame_s = std::max(0.0, span_main + L.recover_s - L.self_compress -
                                store_in_spans);
  L.self_ckpt = L.frame_s + L.stage_s;
  L.finish_other(span_all - span_main);
  std::vector<double> a, b;
  for (const auto& smp : plain) a.push_back(smp.wall_s);
  for (const auto& smp : traced) b.push_back(smp.wall_s);
  L.trace_overhead = median(b) / median(a);

  if (trace) {
    const std::string path =
        (fs::path(o.dir) / ("trace-" + w.name + ".json")).string();
    obs::write_chrome_trace(path, {{trace.get(), w.name}});
    out.extra.str("trace_file", path);
  }
}

void ckpt_restart_workload(const WorkloadSpec& w, const RunOptions& o,
                           const Setup& s, RunSamples& out) {
  NoneCompressor none;
  StoreLog log;
  // Declared before the manager, which points at them while traced.
  obs::MetricsRegistry registry;
  obs::TraceRecorder recorder;
  CheckpointManager m(
      std::make_unique<TimingStore>(
          std::make_unique<DiskStore>(fresh_dir(o.dir, "cycles")), log),
      &none);
  const Vector& xs = s.x_mid;
  const Vector& ps = s.p_mid;
  Vector xd(xs.size()), pd(ps.size());
  std::vector<byte_t> blob;
  m.protect(0, "x", &xs, &xd);
  m.protect(1, "p", &ps, &pd);
  m.protect_blob(2, "scalars", &blob);
  out.state_bytes =
      static_cast<double>((xs.size() + ps.size()) * sizeof(double));

  // Timed phase: checkpoint() + recover() cycles, each restore checked
  // bit-exact; a traced run spends its second half with the manager's
  // metrics and trace attached.
  std::vector<double> plain_wall, traced_wall;
  std::size_t stored_first = 0;
  const auto t0 = Clock::now();
  const double plain_budget = o.trace ? 0.5 * o.seconds : o.seconds;
  bool traced = false;
  StoreLog::Tallies before_traced;
  for (;;) {
    if (!traced && since(t0) >= plain_budget && plain_wall.size() >= 100) {
      if (!o.trace) break;
      traced = true;
      before_traced = log.tallies();
      m.set_observability({&registry, &recorder});
    }
    if (traced && since(t0) >= o.seconds && traced_wall.size() >= 10) break;
    ++out.attempted;
    bool ok = false;
    try {
      std::fill(xd.begin(), xd.end(), 0.0);
      std::fill(pd.begin(), pd.end(), 0.0);
      blob = s.scalars_mid;
      const auto c0 = Clock::now();
      const CheckpointRecord wrec = m.checkpoint();
      const double ck = since(c0);
      blob.assign(blob.size(), 0);
      const auto r0 = Clock::now();
      (void)m.recover();
      const double rs = since(r0);
      const bool exact =
          std::memcmp(xd.data(), xs.data(), xs.size() * sizeof(double)) ==
              0 &&
          std::memcmp(pd.data(), ps.data(), ps.size() * sizeof(double)) ==
              0 &&
          blob == s.scalars_mid;
      out.checks.expect("bit_exact_restore", exact);
      if (stored_first == 0) stored_first = wrec.stored_bytes;
      const bool same = wrec.stored_bytes == stored_first;
      out.checks.expect(
          traced ? "traced_stored_bytes_equal" : "deterministic_repeats",
          same);
      ok = exact && same;
      if (traced) {
        traced_wall.push_back(ck + rs);
      } else {
        plain_wall.push_back(ck + rs);
        out.ckpt_ms.push_back(1e3 * ck);
        out.restart_ms.push_back(1e3 * rs);
        out.stored_ratio.push_back(static_cast<double>(wrec.stored_bytes) /
                                   out.state_bytes);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "lckbench: cycle %d failed: %s\n", out.attempted,
                   e.what());
      out.checks.expect("no_exception", false);
    }
    if (!ok) ++out.failed;
    if (out.attempted >= 100000) break;
  }
  m.set_observability({});
  fs::remove_all(fs::path(o.dir) / "cycles");
  out.unit_wall_s = plain_wall;
  out.extra.num("baseline_iters", static_cast<double>(s.n_base));
  if (!o.trace || traced_wall.empty()) return;

  // Per-layer view of the traced cycles: the decorator saw every store
  // call, the manager's records report codec seconds, framing is the rest
  // of each checkpoint()/recover() span.
  StoreLog::Tallies st = log.tallies();
  const auto minus = [](perfbench::OpTally& a, const perfbench::OpTally& b) {
    a.seconds -= b.seconds;
    a.bytes -= b.bytes;
    a.calls -= b.calls;
  };
  minus(st.write, before_traced.write);
  minus(st.commit, before_traced.commit);
  minus(st.read, before_traced.read);
  minus(st.remove, before_traced.remove);
  st.main_seconds -= before_traced.main_seconds;
  st.write_spans.erase(st.write_spans.begin(),
                       st.write_spans.begin() +
                           static_cast<long>(before_traced.write_spans.size()));
  st.write_span_bytes.erase(
      st.write_span_bytes.begin(),
      st.write_span_bytes.begin() +
          static_cast<long>(before_traced.write_span_bytes.size()));
  st.read_spans.erase(st.read_spans.begin(),
                      st.read_spans.begin() +
                          static_cast<long>(before_traced.read_spans.size()));

  const LayerRates lr = measure_rates(s);
  Layers& L = out.layers;
  L.set_rates(lr, "none");
  L.set_store(st);
  L.set_model(lr, "none", out.state_bytes, st);
  const double cycles = static_cast<double>(traced_wall.size());
  L.encode_s = cycles * out.state_bytes * lr.enc_s_per_byte.at("none");
  L.decode_s = cycles * out.state_bytes * lr.dec_s_per_byte.at("none");
  L.checkpoint_s = sum(st.write_spans) + st.commit.seconds;
  L.recover_s = sum(st.read_spans);
  L.checkpoints = cycles;
  L.recoveries = cycles;
  L.wall_s = sum(traced_wall);
  L.self_compress = L.encode_s + L.decode_s;
  L.self_store = st.main_seconds;
  L.frame_s = std::max(0.0, sum(st.write_spans) + L.recover_s -
                                L.self_compress - st.write.seconds -
                                st.read.seconds);
  L.self_ckpt = L.frame_s;
  L.finish_other();
  L.trace_overhead = median(traced_wall) / median(plain_wall);

  const std::string path =
      (fs::path(o.dir) / ("trace-" + w.name + ".json")).string();
  obs::write_chrome_trace(path, {{&recorder, w.name}});
  out.extra.str("trace_file", path);
}

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "lckbench: %s\nusage: lckbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --dir <scratch dir>\n",
               msg.c_str());
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions o;
  for (int i = 1; i < argc; i += 2) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("bad --seed " + v);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0.0))
        usage("bad --seconds " + v);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--dir") {
      o.dir = v;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (o.dir.empty()) usage("--dir is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions o = parse(argc, argv);
  const auto& all = workloads();
  const auto w = std::find_if(all.begin(), all.end(), [&](const auto& x) {
    return x.name == o.workload;
  });
  if (w == all.end()) usage("unknown workload '" + o.workload + "'");
  fs::create_directories(o.dir);

  RunSamples out;
  Setup s;
  for (int i = 0; i < kSetupReps; ++i) {
    s = Setup{};  // release the previous set-up before building the next
    const auto t0 = Clock::now();
    s = make_setup(*w, o.seed);
    out.setup_s.push_back(since(t0));
  }
  if (w->mtti_frac > 0.0)
    solve_workload(*w, o, s, out);
  else
    ckpt_restart_workload(*w, o, s, out);

  int threads = 1;
#ifdef _OPENMP
  threads = omp_get_max_threads();
#endif
  Json prov;
  prov.str("simd_isa", simd::isa_name(simd::active_isa()))
      .num("omp_threads", threads)
      .str("build_type", LCKB_BUILD_TYPE)
      .str("compiler", LCKB_COMPILER)
      .str("store", "DiskStore, fresh directory per solve or cycle run")
      .str("store_flush", "rename without fsync; the benchmark adds none")
      .num("grid", static_cast<double>(w->grid))
      .num("unknowns", static_cast<double>(s.p.a.rows()))
      .num("state_bytes", out.state_bytes)
      .str("codec", codec_of(*w))
      .num("failure_seed", static_cast<double>(kFailureSeed));
  Json j;
  j.str("workload", w->name)
      .num("seed", static_cast<double>(o.seed))
      .arr("setup_s", out.setup_s)
      .arr("unit_wall_s", out.unit_wall_s)
      .arr("ckpt_ms", out.ckpt_ms)
      .arr("restart_ms", out.restart_ms)
      .arr("stored_ratio", out.stored_ratio)
      .num("peak_rss_mib", peak_rss_mib())
      .num("attempted", out.attempted)
      .num("failed", out.failed)
      .obj("checks", out.checks.json())
      .obj("provenance", prov)
      .obj("extra", out.extra);
  if (o.trace) {
    j.obj("layers", out.layers.metrics());
    j.obj("self_times", out.layers.self_times());
  }
  std::printf("%s\n", j.str().c_str());
  return 0;
}
