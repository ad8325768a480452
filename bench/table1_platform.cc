/**
 * @file
 * Table 1: platform specification of the (simulated) server.
 */

#include <iostream>

#include "server/spec.hh"
#include "util/cli.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    pliant::util::quickFlag(argc, argv, "table1_platform", false);
    pliant::server::ServerSpec spec;
    std::cout << "=== Table 1: Platform Specification ===\n\n";
    pliant::util::TextTable table({"Field", "Value"});
    for (const auto &[field, value] : spec.describe())
        table.addRow({field, value});
    table.print(std::cout);
    std::cout << "\nExperiment topology: one socket, "
              << spec.irqCores << " cores reserved for soft-irq, "
              << spec.usableCores()
              << " cores fairly shared across containers.\n";
    return 0;
}
