// Forwarding SequenceGenerator that times every generate() call as an
// "mpnn.generate" span. Installed as CampaignConfig::generator in traced
// runs only; every other call forwards unchanged, so results stay
// bit-identical to the undecorated generator (checked by the workloads).

#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/generator.hpp"
#include "spans.hpp"

namespace perfbench {

class TimedGenerator final : public impress::core::SequenceGenerator {
 public:
  TimedGenerator(std::shared_ptr<const impress::core::SequenceGenerator> inner,
                 SpanRecorder& spans)
      : inner_(std::move(inner)), spans_(&spans) {}

  [[nodiscard]] std::vector<impress::mpnn::ScoredSequence> generate(
      const impress::protein::Complex& complex,
      const impress::protein::FitnessLandscape& landscape,
      impress::common::Rng& rng) const override {
    ScopedSpan span(spans_, "mpnn.generate");
    return inner_->generate(complex, landscape, rng);
  }

  void observe(const impress::protein::Sequence& sequence,
               double reward) const override {
    inner_->observe(sequence, reward);
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] impress::common::Json checkpoint_state() const override {
    return inner_->checkpoint_state();
  }
  void restore_checkpoint_state(
      const impress::common::Json& state) const override {
    inner_->restore_checkpoint_state(state);
  }

 private:
  std::shared_ptr<const impress::core::SequenceGenerator> inner_;
  SpanRecorder* spans_;
};

}  // namespace perfbench
