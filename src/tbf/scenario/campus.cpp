#include "tbf/scenario/campus.h"

namespace tbf::scenario {

std::string ValidateCampus(const CampusConfig& config, const std::vector<BssSpec>& bss) {
  if (bss.empty()) {
    return "campus: needs at least one BSS";
  }
  if (config.backbone_delay <= 0) {
    return "campus: backbone_delay must be > 0 (it is the conservative lookahead window)";
  }
  for (size_t i = 0; i < bss.size(); ++i) {
    const std::string tag = "bss #" + std::to_string(i);
    if (bss[i].backbone_delay == 0 || bss[i].backbone_delay < -1) {
      return tag + ": backbone_delay must be > 0 (or -1 to inherit)";
    }
    if (std::string err = ValidateScenario(config.cell, bss[i].stations, bss[i].flows);
        !err.empty()) {
      return tag + ": " + err;
    }
    for (size_t f = 0; f < bss[i].flows.size(); ++f) {
      const FlowSpec& spec = bss[i].flows[f];
      if (spec.transport == Transport::kUdp && spec.model != TrafficModel::kBulk) {
        return tag + " flow #" + std::to_string(f) +
               ": campus UDP flows must be kBulk (finite UDP tasks complete at the "
               "sink, which lives in the opposite shard from the source)";
      }
    }
  }
  return std::string();
}

}  // namespace tbf::scenario
