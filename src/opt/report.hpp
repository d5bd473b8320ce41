// JSON reporter for `place optimize` results — shared between the CLI
// (`epea_tool place optimize --json`) and the serve daemon
// (`POST /v1/place/optimize`) so the two emit byte-identical bodies for
// the same search (serve tests prove it against the real binary).
#pragma once

#include <string>
#include <vector>

#include "opt/search.hpp"
#include "opt/types.hpp"

namespace epea::opt {

/// {"benefit":...,"coverage":...,"cost":{"memory":...,"time":...},
///  "error_model":...,"evaluations":...,"exact":...,"selected":[...]}
/// plus the CLI's trailing newline. `selected` is the canonically sorted
/// signal-name list, `benefit` the mode name (analytic|ground-truth).
[[nodiscard]] std::string optimize_result_json(
    const SearchResult& result, const std::vector<Candidate>& candidates,
    ErrorModel model, const std::string& benefit_mode);

}  // namespace epea::opt
