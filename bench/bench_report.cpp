// bench_report: machine-readable hot-kernel baseline (BENCH_kernels.json).
//
// Self-timed (no google-benchmark dependency). For each kernel it reports
// ns/op; for each optimized kernel it also gates the speedup over the
// naive implementation it replaced (ratios are stable across machines in
// a way raw nanoseconds are not). CLI, report layout and --check live in
// bench/harness.hpp. Gates: mutation_score and residue_similarity
// speedups >= 0.8x baseline; mutation_score >= 5x absolute.

#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "harness.hpp"
#include "common/rng.hpp"
#include "fold/fold.hpp"
#include "fold/fold_cache.hpp"
#include "hpc/profiler.hpp"
#include "protein/datasets.hpp"
#include "protein/kernel_tables.hpp"
#include "protein/landscape.hpp"

using namespace impress;

namespace {

volatile double g_sink = 0.0;  // defeats dead-code elimination

/// ns/op of `op(i)`, doubling the repetition count until the measured
/// window reaches `min_ms` (so short kernels are timed over many calls).
double time_kernel(const std::function<void(std::size_t)>& op, double min_ms) {
  using clock = std::chrono::steady_clock;
  std::size_t reps = 64;
  for (;;) {
    const auto start = clock::now();
    for (std::size_t i = 0; i < reps; ++i) op(i);
    const double ms =
        std::chrono::duration<double, std::milli>(clock::now() - start).count();
    if (ms >= min_ms || reps >= (std::size_t{1} << 26))
      return ms * 1e6 / static_cast<double>(reps);
    reps *= 4;
  }
}

/// ns/op with `threads` workers each performing `per_thread` calls of
/// `op(thread, i)` concurrently (wall time over total ops).
double time_threaded(int threads, std::size_t per_thread,
                     const std::function<void(int, std::size_t)>& op) {
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t)
    workers.emplace_back([&, t] {
      for (std::size_t i = 0; i < per_thread; ++i) op(t, i);
    });
  for (auto& w : workers) w.join();
  const double ns =
      std::chrono::duration<double, std::nano>(clock::now() - start).count();
  return ns / (static_cast<double>(threads) * static_cast<double>(per_thread));
}

/// The global-mutex recorder the per-thread profiler replaced; kept here
/// as the contention baseline.
class NaiveRecorder {
 public:
  void record(double time, std::string_view entity, std::string_view event) {
    std::lock_guard lock(mutex_);
    events_.push_back(hpc::ProfileEvent{time, std::string(entity),
                                        std::string(event), {}});
  }
  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return events_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<hpc::ProfileEvent> events_;
};

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_args("kernels", argc, argv);
  if (!opt) return 2;
  const double min_ms = opt->smoke ? 2.0 : 80.0;

  const auto& target = protein::make_target(
      "BENCH", 96, protein::alpha_synuclein().tail(10));
  const auto& land = target.landscape;
  const auto seq = target.start_receptor;

  // One fixed proposal stream shared by both mutation-scoring paths.
  std::vector<std::pair<std::size_t, protein::AminoAcid>> proposals;
  {
    common::Rng rng(11);
    for (int i = 0; i < 1024; ++i)
      proposals.emplace_back(
          rng.below(static_cast<std::uint32_t>(seq.size())),
          static_cast<protein::AminoAcid>(rng.below(
              static_cast<std::uint32_t>(protein::kNumAminoAcids))));
  }

  common::Json::Object kernels;
  auto add_kernel = [&kernels](const std::string& name, double ns) {
    kernels[name] = common::Json::Object{{"ns_per_op", ns}};
    std::cout << name << ": " << ns << " ns/op\n";
  };

  // --- Mutation scoring: naive full recompute vs incremental scorer.
  const double naive_ns = time_kernel(
      [&](std::size_t i) {
        const auto& [pos, aa] = proposals[i & 1023];
        g_sink = g_sink + land.fitness(seq.with_mutation(pos, aa));
      },
      min_ms);
  const protein::FitnessLandscape::MutationScorer scorer(land, seq);
  const double incr_ns = time_kernel(
      [&](std::size_t i) {
        const auto& [pos, aa] = proposals[i & 1023];
        g_sink = g_sink + scorer.score_mutation(pos, aa);
      },
      min_ms);
  add_kernel("mutation_score_naive", naive_ns);
  add_kernel("mutation_score_incremental", incr_ns);

  // --- Residue-similarity kernel: direct formula vs 20x20 table.
  const double sim_direct_ns = time_kernel(
      [&](std::size_t i) {
        const auto a =
            static_cast<protein::AminoAcid>(i % protein::kNumAminoAcids);
        const auto b =
            static_cast<protein::AminoAcid>((i / 7) % protein::kNumAminoAcids);
        g_sink = g_sink + protein::detail::residue_similarity_direct(a, b);
      },
      min_ms);
  const double sim_table_ns = time_kernel(
      [&](std::size_t i) {
        const auto a =
            static_cast<protein::AminoAcid>(i % protein::kNumAminoAcids);
        const auto b =
            static_cast<protein::AminoAcid>((i / 7) % protein::kNumAminoAcids);
        g_sink = g_sink + protein::residue_similarity(a, b);
      },
      min_ms);
  add_kernel("residue_similarity_direct", sim_direct_ns);
  add_kernel("residue_similarity_table", sim_table_ns);

  // --- Preference lookup and seed_sequence (consumers of the above).
  add_kernel("preference",
             time_kernel(
                 [&](std::size_t i) {
                   const auto& [pos, aa] = proposals[i & 1023];
                   g_sink = g_sink + land.preference(pos, aa);
                 },
                 min_ms));
  {
    common::Rng rng(13);
    add_kernel("seed_sequence",
               time_kernel(
                   [&](std::size_t) {
                     g_sink =
                         g_sink +
                         static_cast<double>(land.seed_sequence(0.45, rng).size());
                   },
                   min_ms));
  }

  // --- Fold memo cache: steady-state hit cost, then a duplicate-heavy
  // workload (every distinct complex folded `repeats` times) for the hit
  // rate the campaign-level duplicates achieve.
  const fold::AlphaFold folder;
  const auto cx = target.start_complex();
  {
    fold::FoldCache cache;
    const common::Rng rng(7);
    add_kernel("fold_cache_hit",
               time_kernel(
                   [&](std::size_t) {
                     common::Rng task_rng = rng;
                     g_sink = g_sink +
                              cache.predict(folder, cx, land, task_rng)
                                  .best()
                                  .metrics.ptm;
                   },
                   min_ms));
  }
  common::Json::Object fold_cache_json;
  {
    fold::FoldCache cache;
    common::Rng root(7);
    const std::size_t distinct = opt->smoke ? 8 : 32;
    const std::size_t repeats = 4;
    common::Rng seq_rng(17);
    std::vector<protein::Complex> complexes;
    for (std::size_t d = 0; d < distinct; ++d)
      complexes.push_back(cx.with_receptor(land.seed_sequence(0.45, seq_rng)));
    for (std::size_t r = 0; r < repeats; ++r)
      for (const auto& c : complexes) {
        // Content-derived rng, exactly as the coordinator does it.
        common::Rng task_rng = root.fork(
            fold::FoldCache::content_key(c, land, folder.config()));
        g_sink = g_sink +
                 cache.predict(folder, c, land, task_rng).best().metrics.ptm;
      }
    const auto stats = cache.stats();
    fold_cache_json["hits"] = stats.hits;
    fold_cache_json["misses"] = stats.misses;
    fold_cache_json["evictions"] = stats.evictions;
    fold_cache_json["entries"] = stats.entries;
    fold_cache_json["duplicate_discards"] = stats.duplicate_discards;
    fold_cache_json["hit_rate"] = stats.hit_rate();
    // Conservation law: every miss must end up resident, evicted, or
    // discarded as a raced duplicate — otherwise the hit-rate math above
    // is built on leaky counters.
    if (stats.misses !=
        stats.entries + stats.evictions + stats.duplicate_discards) {
      std::cerr << "fold_cache stats violate conservation: misses="
                << stats.misses << " entries=" << stats.entries
                << " evictions=" << stats.evictions
                << " duplicate_discards=" << stats.duplicate_discards << "\n";
      return 1;
    }
    std::cout << "fold_cache workload hit_rate: " << stats.hit_rate() << "\n";
  }

  // --- Profiler record: per-thread buffers vs the global-mutex recorder.
  const int threads = 4;
  const std::size_t per_thread = opt->smoke ? 4096 : 65536;
  double prof_naive_ns = 0.0;
  double prof_sharded_ns = 0.0;
  {
    NaiveRecorder naive;
    prof_naive_ns = time_threaded(threads, per_thread, [&](int t, std::size_t i) {
      naive.record(static_cast<double>(i), "task.000001",
                   t % 2 == 0 ? "exec_start" : "exec_stop");
    });
    if (naive.size() != static_cast<std::size_t>(threads) * per_thread)
      std::cerr << "warning: naive recorder lost events\n";
  }
  {
    hpc::Profiler profiler;
    prof_sharded_ns =
        time_threaded(threads, per_thread, [&](int t, std::size_t i) {
          profiler.record(static_cast<double>(i), "task.000001",
                          t % 2 == 0 ? "exec_start" : "exec_stop");
        });
    if (profiler.size() != static_cast<std::size_t>(threads) * per_thread)
      std::cerr << "warning: profiler lost events\n";
  }
  add_kernel("profiler_record_naive", prof_naive_ns);
  add_kernel("profiler_record", prof_sharded_ns);

  common::Json::Object results{{"kernels", std::move(kernels)},
                               {"fold_cache", std::move(fold_cache_json)}};
  // The profiler ratio measures mutex-contention relief. A single-core
  // runner has no contention to relieve, so the sharded recorder's extra
  // bookkeeping reads as a bogus sub-1x "slowdown" there: report the ratio
  // only where it means something, and never gate it. (Both raw timings
  // are always in `kernels` for cross-machine comparison.)
  if (std::thread::hardware_concurrency() > 1) {
    results["speedups"] = common::Json::Object{
        {"profiler_record", prof_naive_ns / prof_sharded_ns}};
    std::cout << "speedup profiler_record: " << prof_naive_ns / prof_sharded_ns
              << "x\n";
  }
  return bench::finish(
      *opt,
      {{.name = "mutation_score",
        .value = naive_ns / incr_ns,
        .floor = 5.0,
        .vs_baseline = true},
       {.name = "residue_similarity",
        .value = sim_direct_ns / sim_table_ns,
        .vs_baseline = true}},
      std::move(results));
}
