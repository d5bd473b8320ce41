// Regenerates Table 5: signal error exposures X_s and impacts on TOC2 for
// every signal of the target — analytically from the paper's matrix and
// from our measured matrix.
#include <cstdio>
#include <iostream>

#include "campaign/executor.hpp"
#include "epic/impact.hpp"
#include "epic/measures.hpp"
#include "exp/arrestment_experiments.hpp"
#include "exp/paper_data.hpp"
#include "util/table.hpp"

namespace {

void print_table(const epea::model::SystemModel& system,
                 const epea::epic::PermeabilityMatrix& pm, const char* title) {
    using epea::util::Align;
    using epea::util::TextTable;

    const auto toc2 = system.signal_id("TOC2");
    const auto impacts = epea::epic::impact_profile(pm, toc2);

    TextTable table({"Signal", "X_s", "impact -> TOC2"},
                    {Align::kLeft, Align::kRight, Align::kRight});
    for (const auto& row : epea::epic::exposure_profile(pm)) {
        const auto& imp = impacts[row.signal.index()];
        table.add_row({system.signal_name(row.signal),
                       row.exposure ? TextTable::num(*row.exposure) : "-",
                       imp.impact ? TextTable::num(*imp.impact) : "-"});
    }
    std::printf("%s\n", title);
    std::cout << table << "\n";
}

}  // namespace

int main() {
    using namespace epea;

    target::ArrestmentSystem sys;
    const auto& system = sys.system();

    print_table(system, exp::paper_matrix(system),
                "Table 5 (from the paper's Table-1 matrix)");

    const exp::CampaignOptions options = exp::CampaignOptions::from_env();
    std::printf("Running permeability campaign (%zu cases x %zu times/bit)...\n",
                options.case_count, options.times_per_bit);
    campaign::CampaignExecutor exec(
        "", campaign::CampaignSpec::from_options(campaign::CampaignKind::kPermeability,
                                                 options));
    exec.run();
    const epic::PermeabilityMatrix measured = exec.merged_matrix(system);
    print_table(system, measured, "Table 5 (from the measured matrix)");

    std::printf("Paper impact reference:");
    for (const auto& [name, value] : exp::paper_impacts()) {
        std::printf(" %s=%.3f", name.c_str(), value);
    }
    std::printf("\n");
    return 0;
}
