// Metrics and checks shared by the two campaign workloads
// (campaign_scale and fabric_failover).

#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"
#include "core/campaign.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

/// Runtime tasks the campaign completed: generator, refine and fold tasks.
[[nodiscard]] std::uint64_t campaign_tasks(
    const impress::core::CampaignResult& r);

/// Output checks every campaign result must pass: no failed task, and
/// (when the session kept metrics) every submitted task done.
void check_campaign(Report& report, const impress::core::CampaignResult& r,
                    const impress::obs::MetricsSnapshot& metrics,
                    const std::string& label);

/// Virtual-time science figures: makespan, utilization, final-cycle pTM.
void add_science_metrics(Report& report,
                         const impress::core::CampaignResult& r,
                         int cycles);

/// core.* and rp.* counters from a metrics snapshot, fold.* from the result.
void add_layer_counters(Report& report,
                        const impress::core::CampaignResult& r,
                        const impress::obs::MetricsSnapshot& metrics);

/// Session-dump text of a result: equal text means equal results.
[[nodiscard]] std::string dump_of(const impress::core::CampaignResult& r);

}  // namespace perfbench
