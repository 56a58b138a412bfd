// Campaign: one full experimental arm (CONT-V or IM-RP) over a set of
// design targets — session + pilot + coordinator + pipelines, executed to
// completion, with the computational and scientific results collected
// into a CampaignResult that the benches and tests consume.

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "core/checkpoint.hpp"
#include "core/coordinator.hpp"
#include "core/generator.hpp"
#include "core/pipeline.hpp"
#include "core/protocol.hpp"
#include "hpc/analytics.hpp"
#include "hpc/utilization.hpp"
#include "obs/obs.hpp"
#include "protein/datasets.hpp"

namespace impress::core {

/// Campaign-level checkpointing (docs/persistence.md). Disabled unless a
/// directory is set. Checkpoints are cut at coordinator quiesce points on
/// the configured cadence and written crash-consistently (atomic
/// replacement), so the file at `directory/filename` is always a complete,
/// loadable document — the previous checkpoint survives until the next one
/// is durable.
struct CheckpointConfig {
  std::string directory;  ///< empty = checkpointing disabled
  /// Cadence triggers, forwarded to the coordinator's CheckpointPolicy
  /// (either 0 disables that trigger; both 0 with a directory set means a
  /// directory was configured but no checkpoint will ever be cut).
  std::size_t every_n_completions = 0;
  std::size_t every_n_pipelines = 0;
  std::string filename = "checkpoint.json";
  /// Test hook (simulated mode only): hard-stop the engine right after
  /// the Nth checkpoint of this process is written, modelling a crash.
  /// The interrupted run's CampaignResult is meaningless; resume from the
  /// written checkpoint instead. 0 = never halt.
  std::size_t halt_after = 0;
  /// In-memory checkpoint delivery: invoked with each completed document
  /// after the file write (or instead of one, when no directory is set).
  /// The fabric's workers use this to ship CHECKPOINT_SHARD frames without
  /// touching the filesystem. Cutting checkpoints perturbs the engine
  /// schedule exactly like a directory sink does, so the same cadence must
  /// be configured on both sides of any bit-identity comparison.
  std::function<void(const CampaignCheckpoint&)> sink;

  [[nodiscard]] bool enabled() const noexcept {
    return !directory.empty() || sink != nullptr;
  }
  [[nodiscard]] std::string path() const { return directory + "/" + filename; }
};

struct CampaignConfig {
  std::string name = "IM-RP";
  ProtocolConfig protocol = calibration::im_rp_protocol();
  CoordinatorConfig coordinator{
      .sequential = false,
      .mpnn_durations = calibration::mpnn_durations(),
      .fold_durations = calibration::fold_durations(),
      .refine_durations = RefineDurationModel{},
      .refined_noise_factor = 0.65,
      .task_retry = {},
      .fold_cache = {},
      .infer = {},
      .checkpoint = {},
      .checkpoint_sink = {}};
  rp::PilotDescription pilot = calibration::amarel_pilot();
  /// Additional pilots submitted after `pilot` (submission order defines
  /// the fault-plan pilot index: `pilot` is 0, extra_pilots[i] is i+1).
  /// The TaskManager routes least-loaded across all of them. Combine with
  /// session.faults.spot_reclaims to model preemptible capacity the
  /// campaign rides out: evicted work retries on the survivors and the
  /// reclaimed pilot rejoins when its window ends. Empty (the default)
  /// reproduces the single-pilot campaign exactly.
  std::vector<rp::PilotDescription> extra_pilots;
  rp::SessionConfig session{};  // simulated mode, seed 42
  mpnn::SamplerConfig sampler = calibration::sampler_config();
  fold::PredictorConfig predictor = calibration::predictor_config();
  /// Optional generator override (defaults to the ProteinMPNN surrogate
  /// built from `sampler`).
  std::shared_ptr<const SequenceGenerator> generator;
  /// Memoize fold predictions across the campaign (duplicate sequences
  /// from GA iterations and retries fold once). Results are bit-identical
  /// either way — see fold/fold_cache.hpp for the determinism contract.
  bool enable_fold_cache = true;
  /// Capacity of the campaign's fold cache (entries), when enabled and no
  /// cache was provided via `coordinator.fold_cache`.
  std::size_t fold_cache_capacity = 4096;
  /// Build an inference-server surrogate (infer/infer.hpp) from
  /// `infer_config` when none was provided via `coordinator.infer`.
  /// Default off. Either way, a present server is speed-calibrated at
  /// execute time to the slowest GPU generation among the configured
  /// pilots' nodes, and its accounting lands in CampaignResult::infer.
  /// Batching is bit-unobservable in every other result field.
  bool enable_infer = false;
  infer::InferenceServer::Config infer_config;
  /// Crash-consistent mid-campaign checkpointing; see CheckpointConfig.
  CheckpointConfig checkpoint;
};

/// The paper's two arms, pre-configured.
[[nodiscard]] CampaignConfig im_rp_campaign(std::uint64_t seed = 42);
[[nodiscard]] CampaignConfig cont_v_campaign(std::uint64_t seed = 42);

struct CampaignResult {
  std::string name;
  std::vector<TrajectoryResult> trajectories;

  // Computational metrics (Table I right half, Figs 4-5).
  double makespan_h = 0.0;
  hpc::UtilizationSummary utilization;
  std::map<std::string, double> phase_hours;  ///< bootstrap/exec_setup/running
  std::vector<double> cpu_series;  ///< binned active CPU utilization [0,1]
  std::vector<double> gpu_series;
  /// Task-level Gantt rendering of the run (profiler events).
  std::string gantt;
  /// Estimated dynamic energy of the campaign (kWh; see
  /// hpc::UtilizationRecorder::energy_kwh).
  double energy_kwh = 0.0;

  // Workload bookkeeping (Table I left half).
  std::size_t root_pipelines = 0;
  std::size_t subpipelines = 0;
  std::size_t generator_tasks = 0;
  std::size_t refine_tasks = 0;
  std::size_t fold_tasks = 0;
  std::size_t fold_retries = 0;
  std::size_t failed_tasks = 0;
  std::size_t targets = 0;

  // Fault-tolerance bookkeeping (docs/fault_tolerance.md): runtime-level
  // recovery, as opposed to the protocol-level fold_retries above.
  std::size_t task_retries = 0;   ///< failed attempts resubmitted
  std::size_t task_timeouts = 0;  ///< attempt-deadline evictions
  std::size_t task_requeues = 0;  ///< tasks re-routed off a failed pilot
  std::size_t pilot_failures = 0; ///< pilots lost to injected outages
  /// Attempts per task uid (> 1 identifies retried tasks).
  std::map<std::string, int> attempts;

  /// Fold memo-cache behaviour over the run (all zero when disabled).
  hpc::CacheSummary fold_cache;

  /// Inference-server accounting (infer/infer.hpp): batching behaviour of
  /// the fold/design streams. `enabled` stays false (everything zero)
  /// when the campaign ran without a server. Accounting only — it never
  /// feeds back, so campaigns with and without a server are bit-identical
  /// in every other field.
  infer::ServerSnapshot infer;

  // Observability harvest (docs/observability.md). Both empty unless the
  // session enabled the corresponding axis
  // (config.session.enable_tracing / enable_metrics); neither feeds back
  // into any other result field — tracing-on and tracing-off campaigns
  // are bit-identical everywhere above.
  std::vector<obs::SpanRecord> trace;
  obs::MetricsSnapshot metrics;

  /// Lockdep violation report (src/common/lockdep.hpp): always empty in
  /// default builds; under IMPRESS_LOCKDEP=ON it carries any lock-order
  /// cycles / blocking-under-lock hits observed during the run, so they
  /// land in session dumps next to the trace they explain.
  std::vector<std::string> lockdep;

  /// Trajectories in the paper's counting: accepted design iterations.
  [[nodiscard]] std::size_t total_trajectories() const;
};

class Campaign {
 public:
  explicit Campaign(CampaignConfig config);

  /// Run the campaign over the targets and collect everything. The
  /// targets vector must outlive the call (pipelines hold pointers).
  [[nodiscard]] CampaignResult run(
      const std::vector<protein::DesignTarget>& targets);

  /// Continue an interrupted campaign from a mid-flight checkpoint (see
  /// core/checkpoint.hpp). `targets` must be the same target set the
  /// checkpointed run used (validated by name), and this campaign's
  /// config must match the original's — resume reconstructs coordinator,
  /// runtime and rng state and continues, so in simulated mode the
  /// returned CampaignResult is bit-identical to the uninterrupted run's
  /// (with the same checkpoint cadence configured).
  [[nodiscard]] CampaignResult resume(
      const std::vector<protein::DesignTarget>& targets,
      const CampaignCheckpoint& checkpoint);

  [[nodiscard]] const CampaignConfig& config() const noexcept { return config_; }

 private:
  /// Shared body of run()/resume(): wire coordinator + checkpoint sink,
  /// execute, harvest the CampaignResult.
  [[nodiscard]] CampaignResult execute(
      rp::Session& session, const std::vector<protein::DesignTarget>& targets,
      const CampaignCheckpoint* resume_from);

  CampaignConfig config_;
};

/// Resume a finished (or interrupted) campaign from its result: each
/// target restarts from the best design recorded in `previous`, running
/// this campaign's configured number of cycles on top. Targets without
/// any recorded design start from their original structure. Use with a
/// result freshly computed or loaded via core/session_dump.hpp.
[[nodiscard]] CampaignResult resume_campaign(
    const CampaignConfig& config, const CampaignResult& previous,
    const std::vector<protein::DesignTarget>& targets);

}  // namespace impress::core
