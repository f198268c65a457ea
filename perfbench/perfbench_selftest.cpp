/// Self-test of the benchmark's C++ side: the TimingStore decorator must be
/// transparent. With and without it, a resilient solve yields a
/// field-for-field equal ResilienceResult and byte-identical stored files,
/// and a CheckpointManager writes byte-identical blobs and restores the same
/// values. Run by ctest in the benchmark's build (see CMakeLists.txt).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lck.hpp"
#include "timing_store.hpp"

namespace fs = std::filesystem;
using namespace lck;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// File name -> contents of every file in `dir`.
std::map<std::string, std::string> files_of(const fs::path& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    std::ifstream f(e.path(), std::ios::binary);
    out[e.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(f), {});
  }
  return out;
}

fs::path fresh(const fs::path& root, const std::string& leaf) {
  const fs::path d = root / leaf;
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

/// One resilient solve whose store lives in `dir`, optionally behind the
/// timing decorator.
ResilienceResult solve(const LocalProblem& p, CkptScheme scheme,
                       CkptMode mode, const fs::path& dir, bool timed,
                       perfbench::StoreLog& log) {
  ResilienceConfig cfg;
  cfg.scheme = scheme;
  cfg.ckpt_mode = mode;
  cfg.iteration_seconds = 10.0;
  cfg.failure.mtti_seconds = 150.0;
  cfg.failure.seed = 3;
  cfg.policy.interval_seconds = 40.0;
  cfg.store_factory = [&log, dir, timed]() -> std::unique_ptr<CheckpointStore> {
    auto disk = std::make_unique<DiskStore>(dir.string());
    if (!timed) return disk;
    return std::make_unique<perfbench::TimingStore>(std::move(disk), log);
  };
  auto solver = p.make_solver();
  return ResilientRunner(*solver, cfg).run();
}

void runner_transparency(const fs::path& root) {
  const LocalProblem p = make_local_problem("cg", 16, 1e-8);
  const struct {
    CkptScheme scheme;
    CkptMode mode;
    const char* name;
  } cases[] = {{CkptScheme::kLossy, CkptMode::kSync, "lossy-sync"},
               {CkptScheme::kLossless, CkptMode::kAsync, "lossless-async"},
               {CkptScheme::kTraditional, CkptMode::kSync, "trad-sync"}};
  for (const auto& c : cases) {
    perfbench::StoreLog unused, log;
    const fs::path a = fresh(root, std::string(c.name) + "-plain");
    const fs::path b = fresh(root, std::string(c.name) + "-timed");
    const auto ra = solve(p, c.scheme, c.mode, a, false, unused);
    const auto rb = solve(p, c.scheme, c.mode, b, true, log);
    const std::string n = c.name;
    check(ra.converged && ra.failures > 0 && ra.checkpoints > 0,
          n + ": run converges through failures and checkpoints");
    check(perfbench::same_result(ra, rb),
          n + ": ResilienceResult field-for-field equal with the decorator");
    const auto fa = files_of(a);
    check(!fa.empty() && fa == files_of(b),
          n + ": stored files byte-identical with the decorator");
    const auto t = log.tallies();
    check(t.write_spans.size() >=
              static_cast<std::size_t>(rb.checkpoints),
          n + ": one write span per checkpoint written");
    // A recovery before the first checkpoint restarts from scratch and
    // reads nothing.
    check(!t.read_spans.empty() &&
              t.read_spans.size() <= static_cast<std::size_t>(rb.recoveries),
          n + ": one read span per recovery from a checkpoint");
    check(t.write.bytes > 0 && t.read.bytes > 0 && t.write.seconds > 0.0,
          n + ": store bytes and seconds recorded");
  }
}

void manager_transparency(const fs::path& root) {
  Vector x(70000), p(70000), xd, pd;
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 / static_cast<double>(i + 1);
    p[i] = static_cast<double>(i % 97) - 48.5;
  }
  std::vector<byte_t> blob = {1, 2, 3, 4, 5};
  const auto comp = make_compressor("deflate");
  perfbench::StoreLog log;
  const fs::path a = fresh(root, "mgr-plain");
  const fs::path b = fresh(root, "mgr-timed");
  std::vector<Vector> restored;
  for (const fs::path& dir : {a, b}) {
    std::unique_ptr<CheckpointStore> store =
        std::make_unique<DiskStore>(dir.string());
    if (dir == b)
      store = std::make_unique<perfbench::TimingStore>(std::move(store), log);
    CheckpointManager m(std::move(store), comp.get());
    m.protect(0, "x", &x, &xd);
    m.protect(1, "p", &p, &pd);
    m.protect_blob(2, "scalars", &blob);
    (void)m.checkpoint();
    const StageTicket t = m.stage();
    (void)m.wait_drain(t.version);
    m.commit_version(t.version);
    (void)m.recover();
    restored.push_back(xd);
    restored.push_back(pd);
  }
  check(files_of(a) == files_of(b),
        "manager: sync + staged blobs byte-identical with the decorator");
  check(restored[0] == x && restored[1] == p && restored[2] == x &&
            restored[3] == p,
        "manager: recover() restores bit-exact values through the decorator");
  const auto t = log.tallies();
  check(t.write_spans.size() == 2 && t.read_spans.size() == 1 &&
            t.commit.calls == 2,
        "manager: decorator saw 2 checkpoints, 2 commits, 1 recovery");
  check(t.write_span_main[0] && !t.write_span_main[1],
        "manager: the staged drain's write is tallied off the owner thread");
}

void same_result_detects_differences() {
  ResilienceResult a;
  a.checkpoints = 3;
  a.virtual_seconds = 1.5;
  ResilienceResult b = a;
  check(perfbench::same_result(a, b), "same_result: equal copies compare equal");
  b.virtual_seconds = std::nextafter(1.5, 2.0);
  check(!perfbench::same_result(a, b),
        "same_result: a one-ulp difference is a difference");
  b = a;
  b.recoveries_by_tier[2] = 1;
  check(!perfbench::same_result(a, b),
        "same_result: array fields are compared");
}

}  // namespace

int main() {
  const fs::path root = fs::current_path() / "perfbench_selftest.tmp";
  runner_transparency(root);
  manager_transparency(root);
  same_result_detects_differences();
  fs::remove_all(root);
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed",
              failures);
  return failures ? 1 : 0;
}
