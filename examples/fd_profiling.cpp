// FD profiling walkthrough: exercises the discovery substrate directly --
// exact TANE, approximate TANE, g3 errors and saturated sets -- on a
// generated Tax table. This is the "data
// profiling" half of the paper, usable standalone as a Metanome-style
// profiler.
//
// Build & run:  ./build/examples/fd_profiling [rows]

#include <cstdio>
#include <cstdlib>

#include "core/uguide.h"

using namespace uguide;

int main(int argc, char** argv) {
  const int rows = argc > 1 ? std::atoi(argv[1]) : 3000;

  Relation tax = GenerateTax({.rows = rows, .seed = 7});
  const Schema& schema = tax.schema();
  std::printf("Tax table: %d rows x %d attributes\n\n", tax.NumRows(),
              tax.NumAttributes());

  // Exact minimal FDs (LHS capped at 3 attributes for readability).
  TaneOptions tane;
  tane.max_lhs_size = 3;
  FdSet exact = DiscoverFds(tax, tane).ValueOrDie();
  std::printf("exact minimal FDs (max LHS 3): %zu\n", exact.Size());
  int shown = 0;
  for (const Fd& fd : exact) {
    if (fd.lhs.Size() <= 1 && shown < 12) {
      std::printf("  %s\n", fd.ToString(schema).c_str());
      ++shown;
    }
  }
  std::printf("  ... (%zu total)\n\n", exact.Size());

  // Approximate FDs after corrupting a few cells: zip -> city no longer
  // holds exactly, but survives as an AFD within a 10% g3 budget.
  Relation dirty = tax;
  const int city = *schema.IndexOf("city");
  dirty.SetValue(0, city, "Sprungfield");
  dirty.SetValue(1, city, "Shelbyville?");
  FdSet exact_dirty = DiscoverFds(dirty, tane).ValueOrDie();
  TaneOptions approx = tane;
  approx.max_error = 0.10;
  FdSet afds = DiscoverFds(dirty, approx).ValueOrDie();
  const Fd zip_city(AttributeSet::Single(*schema.IndexOf("zip")), city);
  std::printf("after corrupting two city cells:\n");
  std::printf("  zip->city exact?        %s\n",
              exact_dirty.Contains(zip_city) ? "yes" : "no");
  std::printf("  zip->city as 10%% AFD?   %s\n",
              afds.Contains(zip_city) ? "yes" : "no");

  PartitionCache cache(&dirty);
  std::printf("  g3 error of zip->city:  %.5f\n\n", cache.FdError(zip_city));

  // Saturated sets over a compact sub-schema. (Over the full 16
  // attributes the closed-set family explodes; a sub-schema keeps it
  // legible.) Sampling-Saturation (Algorithm 8) asks for tuples whose
  // agree-sets with its sample realize these sets.
  Schema mini = Schema::Make({"zip", "city", "state", "areacode", "exemp"})
                    .ValueOrDie();
  FdSet mini_fds({Fd({0}, 1),    // zip -> city
                  Fd({0}, 2),    // zip -> state
                  Fd({3}, 2),    // areacode -> state
                  Fd({2}, 4)});  // state -> exemp
  std::vector<AttributeSet> closed =
      SaturatedSets(mini_fds, mini.NumAttributes());
  std::printf("saturated sets of the %d-attribute sub-schema: %zu\n",
              mini.NumAttributes(), closed.size());
  return 0;
}
