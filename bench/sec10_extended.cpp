// Regenerates §10: the extended (propagation + effect) analysis selects
// EA locations that recover EH-level coverage under the severe error
// model. Prints the extended placement report and reruns the Fig-3
// experiment with the extended set alongside EH and PA.
#include <cstdio>
#include <iostream>

#include "campaign/executor.hpp"
#include "epic/placement.hpp"
#include "exp/arrestment_experiments.hpp"
#include "exp/paper_data.hpp"
#include "util/table.hpp"

int main() {
    using namespace epea;
    using util::Align;
    using util::TextTable;

    target::ArrestmentSystem sys;
    const auto& system = sys.system();

    // Extended placement from the paper's matrix (the paper's §10 uses
    // the Table-1/Table-5 values).
    const epic::PermeabilityMatrix pm = exp::paper_matrix(system);
    const auto report = epic::extended_placement(pm);

    TextTable table({"Signal", "X_s", "Impact", "Select", "Motivation"},
                    {Align::kLeft, Align::kRight, Align::kRight, Align::kLeft,
                     Align::kLeft});
    for (const auto& d : report) {
        if (system.signal(d.signal).role == model::SignalRole::kSystemInput) continue;
        table.add_row({system.signal_name(d.signal),
                       d.exposure ? TextTable::num(*d.exposure) : "-",
                       d.impact ? TextTable::num(*d.impact) : "-",
                       d.selected ? "yes" : "no", d.motivation});
    }
    std::printf("Section 10 — extended placement (propagation + effect analysis)\n");
    std::cout << table;

    // Map selected signals to EA names.
    std::vector<std::string> ext_eas;
    for (const auto sid : epic::selected_signals(report)) {
        for (const auto& [ea_name, sig_name] : exp::arrestment_ea_signals()) {
            if (sig_name == system.signal_name(sid)) ext_eas.push_back(ea_name);
        }
    }
    std::printf("\nExtended set:");
    for (const auto& n : ext_eas) std::printf(" %s", n.c_str());
    std::printf("  (paper: equals the EH-set on this target)\n\n");

    // Severe-model coverage with all three sets.
    campaign::CampaignSpec spec = campaign::CampaignSpec::from_options(
        campaign::CampaignKind::kSevere, exp::CampaignOptions::from_env());
    spec.subsets.push_back({"EXT-set", ext_eas});  // after the EH- and PA-set
    campaign::CampaignExecutor exec("", std::move(spec));
    exec.run();
    const exp::SevereCoverageResult result = exec.merged_severe();

    TextTable cov({"Set", "c_tot RAM", "c_tot stack", "c_tot total"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight});
    for (const auto& set : result.sets) {
        cov.add_row({set.set_name, TextTable::num(set.cells[0][0].coverage()),
                     TextTable::num(set.cells[1][0].coverage()),
                     TextTable::num(set.cells[2][0].coverage())});
    }
    std::cout << cov;
    std::printf("\nClaim: EXT-set coverage equals EH-set coverage (the extension "
                "restores robustness to the severe error model).\n");
    return 0;
}
