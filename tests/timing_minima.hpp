// Min-of-repetitions wall-clock timing for the overhead guards: detached,
// attached and detached-again repetitions alternate, so a load spike on
// the host slows both minima alike instead of one side.
#pragma once

#include <algorithm>

namespace ssr::timing {

/// Best times of `run(nullptr)` (5 repetitions), `run(sink)` (5) and
/// `run(nullptr)` again (3), taken in interleaved rounds.
struct minima {
  double detached = 1e9;
  double attached = 1e9;
  double detached_again = 1e9;
};

template <class Run, class Sink>
minima interleaved_minima(Run run, Sink* sink) {
  minima m;
  for (int r = 0; r < 5; ++r) {
    m.detached = std::min(m.detached, run(nullptr));
    m.attached = std::min(m.attached, run(sink));
    if (r < 3) m.detached_again = std::min(m.detached_again, run(nullptr));
  }
  return m;
}

}  // namespace ssr::timing
