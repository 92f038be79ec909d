// Entry points of the benchmark driver's subcommands (see main.cpp).
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace bench {

/// The schedule every workload builds with: practical mode, eps 0.25,
/// kappa 3, rho 0.4 (nas_oracle's defaults).
inline constexpr double kEps = 0.25;
inline constexpr int kKappa = 3;
inline constexpr double kRho = 0.4;

int cmd_gen(Args& args);
int cmd_reference(Args& args);
int cmd_construct(Args& args);
int cmd_serve(Args& args);
int cmd_trace(Args& args);

}  // namespace bench
