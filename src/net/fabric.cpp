#include "net/fabric.hpp"

#include <atomic>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/json.hpp"
#include "core/session_dump.hpp"
#include "net/socket.hpp"

namespace impress::net {

CoordinatorNode::CoordinatorNode(
    FabricConfig config, const std::vector<protein::DesignTarget>* targets,
    core::ShardPlan plan, obs::Observability* obs)
    : config_(std::move(config)),
      targets_(targets),
      plan_(std::move(plan)),
      shards_(plan_.shards.size()),
      obs_(obs) {
  if (obs_ != nullptr && obs_->registry().enabled()) {
    metrics_ = obs::FabricMetrics::registered(obs_->registry());
  }
}

std::size_t CoordinatorNode::add_worker(std::shared_ptr<Link> link) {
  WorkerSlot w;
  w.link = std::move(link);
  workers_.push_back(std::move(w));
  return workers_.size() - 1;
}

void CoordinatorNode::pump(std::uint64_t now) {
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    drain(w, now);
  }

  // Death detection before assignment, so a freed shard can be rerouted
  // in the same pump. Two signals: a closed link (a crashed peer's FIN —
  // prompt and unambiguous, the only signal safe in threaded mode where
  // a busy worker can outlast any tick-based timeout) and heartbeat
  // silence (covers partitions where the link stays open).
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    WorkerSlot& worker = workers_[w];
    if (!worker.alive) {
      continue;
    }
    if (worker.link->closed()) {
      declare_dead(w, now, "link closed");
    } else if (config_.heartbeat_timeout > 0 && worker.registered &&
               now - worker.last_heard > config_.heartbeat_timeout) {
      declare_dead(w, now, "heartbeat timeout");
    }
  }

  // Assignment: lowest unassigned shard to lowest free worker, so the
  // schedule is a pure function of the message history.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].state != ShardState::kUnassigned) {
      continue;
    }
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      const WorkerSlot& worker = workers_[w];
      if (worker.alive && worker.registered &&
          worker.active_shard == SIZE_MAX) {
        assign(s, w, now, /*new_epoch=*/true);
        break;
      }
    }
  }

  // Resubmission: a running shard whose owner has made no visible
  // progress gets the ASSIGN/SUBMIT pair again (same epoch; the worker
  // side is idempotent). Covers dropped frames in either direction.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardSlot& shard = shards_[s];
    if (shard.state == ShardState::kRunning &&
        now - shard.last_progress > config_.resubmit_after) {
      ++stats_.resubmits;
      if (metrics_) metrics_->resubmits->add(1);
      assign(s, shard.owner, now, /*new_epoch=*/false);
    }
  }

  // Liveness probes.
  if (config_.heartbeat_period > 0 &&
      (last_probe_ == 0 || now - last_probe_ >= config_.heartbeat_period)) {
    last_probe_ = now;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (workers_[w].alive) {
        send(w, HeartbeatMsg{.worker_id = workers_[w].id,
                             .tick = now,
                             .active_shard = kNoShard,
                             .busy = 0});
      }
    }
  }
}

bool CoordinatorNode::done() const noexcept {
  for (const ShardSlot& s : shards_) {
    if (s.state != ShardState::kDone) {
      return false;
    }
  }
  return true;
}

core::CampaignResult CoordinatorNode::result() const {
  std::vector<core::CampaignResult> results;
  results.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const ShardSlot& shard = shards_[s];
    if (shard.state != ShardState::kDone) {
      throw std::runtime_error("CoordinatorNode::result: shard " +
                               std::to_string(s) + " not done");
    }
    if (shard.result_json.empty()) {
      throw std::runtime_error("CoordinatorNode::result: shard " +
                               std::to_string(s) + " failed: " + shard.error);
    }
    results.push_back(core::campaign_result_from_json(
        common::Json::parse(shard.result_json)));
  }
  return core::merge_shard_results(std::move(results));
}

FabricSnapshot CoordinatorNode::snapshot() const {
  FabricSnapshot snap;
  snap.shards.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const ShardSlot& shard = shards_[s];
    FabricSnapshot::Shard out;
    out.shard_id = static_cast<std::uint32_t>(s);
    out.epoch = shard.epoch;
    out.done = shard.state == ShardState::kDone;
    out.result_json = shard.result_json;
    out.checkpoint_ordinal = shard.checkpoint_ordinal;
    out.checkpoint_json = shard.checkpoint_json;
    snap.shards.push_back(std::move(out));
  }
  return snap;
}

void CoordinatorNode::restore(const FabricSnapshot& snap) {
  for (const FabricSnapshot::Shard& in : snap.shards) {
    if (in.shard_id >= shards_.size()) {
      throw std::invalid_argument("FabricSnapshot: unknown shard " +
                                  std::to_string(in.shard_id));
    }
    ShardSlot& shard = shards_[in.shard_id];
    shard.epoch = in.epoch;
    if (in.done) {
      shard.state = ShardState::kDone;
      shard.result_json = in.result_json;
    } else {
      shard.state = ShardState::kUnassigned;
      shard.checkpoint_ordinal = in.checkpoint_ordinal;
      shard.checkpoint_json = in.checkpoint_json;
    }
  }
}

void CoordinatorNode::drain(std::size_t w, std::uint64_t now) {
  for (;;) {
    std::optional<Message> m = workers_[w].link->poll();
    if (!m) {
      return;
    }
    count_rx(*m);
    handle(w, std::move(*m), now);
  }
}

void CoordinatorNode::handle(std::size_t w, Message m, std::uint64_t now) {
  WorkerSlot& worker = workers_[w];
  if (const auto* hello = std::get_if<HelloMsg>(&m)) {
    if (hello->wire_version != kWireVersion) {
      return;  // speaks a future protocol; leave unregistered
    }
    worker.id = hello->worker_id;
    worker.registered = true;
    worker.last_heard = now;
    return;
  }
  worker.last_heard = now;
  if (const auto* hb = std::get_if<HeartbeatMsg>(&m)) {
    // A heartbeat reply also registers: HELLO is sent once and chaos may
    // eat it, but probes recur, so registration converges regardless.
    if (!worker.registered) {
      worker.id = hb->worker_id;
      worker.registered = true;
    }
    return;
  }
  if (auto* result = std::get_if<TaskResultMsg>(&m)) {
    if (result->shard_id >= shards_.size()) {
      return;
    }
    ShardSlot& shard = shards_[result->shard_id];
    if (shard.state != ShardState::kRunning || result->epoch != shard.epoch) {
      ++stats_.stale_frames;
      if (metrics_) metrics_->stale_frames->add(1);
      return;
    }
    shard.state = ShardState::kDone;
    if (result->status == TaskResultMsg::Status::kOk) {
      shard.result_json = std::move(result->payload);
    } else {
      shard.result_json.clear();
      shard.error = std::move(result->payload);
    }
    ++stats_.submits_closed_result;
    if (shard.owner != SIZE_MAX) {
      workers_[shard.owner].active_shard = SIZE_MAX;
    }
    shard.owner = SIZE_MAX;
    if (shard.span != 0 && obs_ != nullptr) {
      obs_->tracer().end(shard.span, static_cast<double>(now));
      shard.span = 0;
    }
    return;
  }
  if (auto* ckpt = std::get_if<CheckpointShardMsg>(&m)) {
    if (ckpt->shard_id >= shards_.size()) {
      return;
    }
    ShardSlot& shard = shards_[ckpt->shard_id];
    if (shard.state != ShardState::kRunning || ckpt->epoch != shard.epoch) {
      ++stats_.stale_frames;
      if (metrics_) metrics_->stale_frames->add(1);
      return;
    }
    shard.last_progress = now;
    if (ckpt->ordinal > shard.checkpoint_ordinal) {
      shard.checkpoint_ordinal = ckpt->ordinal;
      shard.checkpoint_json = std::move(ckpt->checkpoint_json);
      ++stats_.checkpoints_stored;
      if (metrics_) metrics_->checkpoints_stored->add(1);
    }
    return;
  }
  // ASSIGN/SUBMIT/WORKER_DEAD never flow worker -> coordinator.
}

void CoordinatorNode::declare_dead(std::size_t w, std::uint64_t now,
                                   const std::string& why) {
  WorkerSlot& worker = workers_[w];
  worker.alive = false;
  ++stats_.workers_declared_dead;
  if (metrics_) metrics_->workers_dead->add(1);

  std::uint32_t dead_shard = kNoShard;
  std::uint32_t dead_epoch = 0;
  if (worker.active_shard != SIZE_MAX) {
    ShardSlot& shard = shards_[worker.active_shard];
    dead_shard = static_cast<std::uint32_t>(worker.active_shard);
    dead_epoch = shard.epoch;
    shard.state = ShardState::kUnassigned;
    shard.owner = SIZE_MAX;
    ++stats_.submits_closed_death;
    if (shard.span != 0 && obs_ != nullptr) {
      obs_->tracer().attr(shard.span, "outcome", "worker_dead");
      obs_->tracer().end(shard.span, static_cast<double>(now));
      shard.span = 0;
    }
    worker.active_shard = SIZE_MAX;
  }
  const WorkerDeadMsg obituary{.worker_id = worker.id,
                               .shard_id = dead_shard,
                               .epoch = dead_epoch,
                               .reason = why};
  for (std::size_t peer = 0; peer < workers_.size(); ++peer) {
    if (workers_[peer].alive) {
      send(peer, obituary);
    }
  }
}

void CoordinatorNode::assign(std::size_t shard_index, std::size_t w,
                             std::uint64_t now, bool new_epoch) {
  ShardSlot& shard = shards_[shard_index];
  if (new_epoch) {
    ++shard.epoch;
    ++stats_.submits_opened;
    if (shard.epoch > 1) {
      ++stats_.reassignments;
      if (metrics_) metrics_->reassignments->add(1);
    }
    if (obs_ != nullptr && obs_->tracer().enabled()) {
      shard.span = obs_->tracer().begin(
          static_cast<double>(now),
          "fabric.shard." + std::to_string(shard_index) + ".e" +
              std::to_string(shard.epoch),
          obs::categories::kDecision);
      obs_->tracer().attr(shard.span, "worker",
                          std::to_string(workers_[w].id));
    }
  }
  send(w, AssignShardMsg{
              .shard_id = static_cast<std::uint32_t>(shard_index),
              .epoch = shard.epoch,
              .seed = config_.campaign.session.seed,
              .campaign_name = config_.campaign.name,
              .target_names = plan_.shards[shard_index].target_names,
              .checkpoint_ordinal = shard.checkpoint_ordinal,
              .checkpoint_json = shard.checkpoint_json});
  send(w, TaskSubmitMsg{.shard_id = static_cast<std::uint32_t>(shard_index),
                        .epoch = shard.epoch,
                        .task_seq = next_task_seq_++,
                        .kind = TaskSubmitMsg::Kind::kRunShard,
                        .payload = {}});
  shard.state = ShardState::kRunning;
  shard.owner = w;
  shard.submitted_at = now;
  shard.last_progress = now;
  workers_[w].active_shard = shard_index;
}

void CoordinatorNode::send(std::size_t w, const Message& m) {
  if (metrics_) metrics_->tx[type_index(type_of(m))]->add(1);
  workers_[w].link->send(m);
}

void CoordinatorNode::count_rx(const Message& m) {
  if (metrics_) metrics_->rx[type_index(type_of(m))]->add(1);
}

// --- run_distributed --------------------------------------------------------

DistributedOutcome run_distributed(
    const DistributedConfig& config,
    const std::vector<protein::DesignTarget>& targets,
    obs::Observability* obs) {
  const core::ShardPlan plan =
      core::ShardPlan::contiguous(targets, config.num_shards);
  CoordinatorNode coordinator(config.fabric, &targets, plan, obs);

  LoopbackNet net(config.chaos);
  std::vector<std::unique_ptr<WorkerNode>> workers;
  for (std::size_t w = 0; w < config.num_workers; ++w) {
    std::shared_ptr<Link> coord_side;
    std::shared_ptr<Link> worker_side;
    if (config.use_sockets) {
      auto [a, b] = make_socket_pair();
      coord_side = std::move(a);
      worker_side = std::move(b);
    } else {
      auto [a, b] = net.make_link_pair("coord->w" + std::to_string(w),
                                       "w" + std::to_string(w) + "->coord");
      coord_side = std::move(a);
      worker_side = std::move(b);
    }
    coordinator.add_worker(std::move(coord_side));

    WorkerConfig wc;
    wc.worker_id = static_cast<std::uint32_t>(w);
    wc.campaign = config.fabric.campaign;
    wc.checkpoint_every = config.fabric.checkpoint_every;
    if (w < config.kill_plans.size()) {
      wc.kill = config.kill_plans[w];
    }
    workers.push_back(std::make_unique<WorkerNode>(
        std::move(wc), std::move(worker_side), &targets));
  }

  std::uint64_t tick = 0;
  if (config.threaded) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    threads.reserve(workers.size());
    for (auto& worker : workers) {
      threads.emplace_back([&stop, &worker] {
        while (!stop.load(std::memory_order_acquire)) {
          worker->pump();
          std::this_thread::yield();
        }
      });
    }
    while (!coordinator.done() && tick < config.max_ticks) {
      net.advance(1);
      ++tick;
      coordinator.pump(config.use_sockets ? tick : net.now());
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : threads) {
      t.join();
    }
  } else {
    while (!coordinator.done() && tick < config.max_ticks) {
      net.advance(1);
      ++tick;
      coordinator.pump(config.use_sockets ? tick : net.now());
      for (auto& worker : workers) {
        worker->pump();
      }
    }
  }
  if (!coordinator.done()) {
    throw std::runtime_error(
        "run_distributed: campaign did not converge within " +
        std::to_string(config.max_ticks) + " ticks");
  }

  DistributedOutcome outcome;
  outcome.result = coordinator.result();
  outcome.stats = coordinator.stats();
  outcome.net = net.stats();
  return outcome;
}

}  // namespace impress::net
