#include "tile/tile_lifetime.h"

#include "obs/obs.h"

namespace atmx {

void ResidentTileSet::Charge(std::uint64_t bytes) {
  if (bytes == 0) return;
  const std::uint64_t now =
      current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::uint64_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
#if defined(ATMX_OBS_ENABLED)
  obs::MemTracker::Global().RecordAlloc(bytes);
  ATMX_GAUGE_SET("atmult.fused.resident_bytes", static_cast<double>(now));
#endif
}

bool ResidentTileSet::TryReserve(std::uint64_t bytes) {
  const std::uint64_t budget = budget_.load(std::memory_order_relaxed);
  if (budget == 0) {
    reserved_.fetch_add(bytes, std::memory_order_relaxed);
    return true;
  }
  std::uint64_t reserved = reserved_.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint64_t charged = current_.load(std::memory_order_relaxed);
    if (charged + reserved + bytes > budget) return false;
    if (reserved_.compare_exchange_weak(reserved, reserved + bytes,
                                        std::memory_order_relaxed)) {
      return true;
    }
  }
}

std::uint64_t ResidentTileSet::Retire(std::vector<Tile>* tiles,
                                      std::span<const index_t> indices) {
  std::uint64_t released = 0;
  for (index_t idx : indices) {
    Tile& t = (*tiles)[static_cast<std::size_t>(idx)];
    released += t.MemoryBytes();
    // Keep the bounding box (band bookkeeping may still look at windows)
    // and the placement, but drop the payload.
    const int home = t.home_node();
    t = Tile::MakeSparse(t.row0(), t.col0(), CsrMatrix(t.rows(), t.cols()));
    t.set_home_node(home);
  }
  ReleaseCharge(released);
  return released;
}

void ResidentTileSet::ReleaseCharge(std::uint64_t bytes) {
  if (bytes == 0) return;
  const std::uint64_t now =
      current_.fetch_sub(bytes, std::memory_order_relaxed) - bytes;
#if defined(ATMX_OBS_ENABLED)
  obs::MemTracker::Global().RecordFree(bytes);
  ATMX_GAUGE_SET("atmult.fused.resident_bytes", static_cast<double>(now));
#else
  (void)now;
#endif
}

}  // namespace atmx
