// The quickstart scenario: sample a replica population with
// market-share-like popularity skew and report the paper's headline
// diversity quantities (§IV-A). Doubles as the smallest example of
// writing a scenario family (`findep-bench --family diversity_audit`).
#pragma once

#include <cstddef>
#include <string>

#include "runtime/scenario.h"

namespace findep::scenarios {

class DiversityAuditScenario : public runtime::Scenario {
 public:
  struct Params {
    std::size_t replicas = 32;
    double zipf_exponent = 1.0;        // market-share-like skew
    double attestable_fraction = 0.5;  // half the replicas have a TEE
  };

  explicit DiversityAuditScenario(Params params);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] runtime::MetricRecord run(
      const runtime::RunContext& ctx) const override;

 private:
  Params params_;
};

}  // namespace findep::scenarios
