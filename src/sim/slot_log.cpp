#include "sim/slot_log.h"

#include <ostream>

namespace femtocr::sim {

void SlotLog::write_csv(std::ostream& os) const {
  os << "slot,gop,available,expected_channels,collisions,objective,"
        "upper_bound,bound_gap,user,bs,rho,increment,psnr\n";
  for (const auto& e : entries_) {
    // Eq. (23) optimality gap for the slot, precomputed so downstream
    // plotting (scripts/plot_figures.py --trace) never re-derives it.
    const double bound_gap =
        e.upper_bound > e.objective ? e.upper_bound - e.objective : 0.0;
    for (std::size_t j = 0; j < e.users.size(); ++j) {
      const auto& u = e.users[j];
      os << e.slot << ',' << e.gop << ',' << e.available << ','
         << e.expected_channels << ',' << e.collisions << ',' << e.objective
         << ',' << e.upper_bound << ',' << bound_gap << ',' << j << ','
         << (u.use_mbs ? "mbs" : "fbs") << ',' << u.rho << ',' << u.increment
         << ',' << u.psnr_after << '\n';
    }
  }
}

}  // namespace femtocr::sim
