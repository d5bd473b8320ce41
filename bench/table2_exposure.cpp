// Regenerates Table 2: signal error exposures and the PA-based selection
// of EA locations, both from the paper's published matrix (validating the
// analysis math) and from our measured matrix (validating the simulated
// target).
#include <cstdio>
#include <iostream>

#include "campaign/executor.hpp"
#include "epic/measures.hpp"
#include "epic/placement.hpp"
#include "exp/arrestment_experiments.hpp"
#include "exp/paper_data.hpp"
#include "util/table.hpp"

namespace {

void print_report(const epea::model::SystemModel& system,
                  const epea::epic::PermeabilityMatrix& pm, const char* title) {
    using epea::util::Align;
    using epea::util::TextTable;

    const auto report = epea::epic::pa_placement(pm);
    // Order rows by descending exposure like Table 2.
    const auto profile = epea::epic::exposure_profile(pm);

    TextTable table({"Signal", "X_s", "Select", "Motivation"},
                    {Align::kLeft, Align::kRight, Align::kLeft, Align::kLeft});
    for (const auto& row : profile) {
        if (system.signal(row.signal).role == epea::model::SignalRole::kSystemInput) {
            continue;  // Table 2 lists software-visible signals only
        }
        const auto& decision = report[row.signal.index()];
        table.add_row({system.signal_name(row.signal),
                       row.exposure ? TextTable::num(*row.exposure) : "-",
                       decision.selected ? "yes" : "no", decision.motivation});
    }
    std::printf("%s\n", title);
    std::cout << table << "\n";
}

}  // namespace

int main() {
    using namespace epea;

    target::ArrestmentSystem sys;
    const auto& system = sys.system();

    // (a) Analytic reproduction from the paper's Table-1 matrix.
    const epic::PermeabilityMatrix paper = exp::paper_matrix(system);
    print_report(system, paper, "Table 2 (from the paper's Table-1 matrix)");

    // (b) Measured matrix from our fault-injection campaign.
    const exp::CampaignOptions options = exp::CampaignOptions::from_env();
    std::printf("Running permeability campaign (%zu cases x %zu times/bit)...\n",
                options.case_count, options.times_per_bit);
    campaign::CampaignExecutor exec(
        "", campaign::CampaignSpec::from_options(campaign::CampaignKind::kPermeability,
                                                 options));
    exec.run();
    const epic::PermeabilityMatrix measured = exec.merged_matrix(system);
    print_report(system, measured, "Table 2 (from the measured matrix)");

    // PA-set summary.
    for (const auto* pm : {&paper, &measured}) {
        std::printf("PA-set (%s):", pm == &paper ? "paper matrix" : "measured");
        for (const auto sid : epic::selected_signals(epic::pa_placement(*pm))) {
            std::printf(" %s", system.signal_name(sid).c_str());
        }
        std::printf("\n");
    }
    return 0;
}
