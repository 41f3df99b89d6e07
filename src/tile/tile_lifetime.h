// Result-tile accounting for the product executor (see docs/CHAINS.md):
// every result tile is charged while it lives, and intermediate result
// tiles stay resident only from the task that produced them until their
// last consuming task finishes. This tracker follows that footprint —
// charging the MemTracker while the tiles live, releasing the charge (and
// the tile payloads themselves) when a band of tiles is retired.

#ifndef ATMX_TILE_TILE_LIFETIME_H_
#define ATMX_TILE_TILE_LIFETIME_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "tile/tile.h"

namespace atmx {

// Thread-safe footprint tracker for the result tiles of one executor run.
// Tasks call Charge() as they produce tiles and Retire() when a band's
// dependency count shows every consumer finished; the peak is the largest
// working set (intermediates plus the accumulating result) the run ever
// held — the number the resident_peak_bytes stat and the
// `atmult.fused.resident_bytes_peak` gauge report.
class ResidentTileSet {
 public:
  // Records `bytes` of freshly produced result tiles (also charged
  // to the process MemTracker when the observability layer is built in).
  void Charge(std::uint64_t bytes);

  // Releases the payloads of `tiles[idx]` for idx in `indices` — each
  // tile is replaced by an empty sparse tile with the same bounding box
  // and home node —
  // and uncharges their bytes. Returns the bytes released. Callers must
  // guarantee no concurrent reader of those tiles (the executor's
  // consumer countdowns do).
  std::uint64_t Retire(std::vector<Tile>* tiles,
                       std::span<const index_t> indices);

  // Uncharges without touching any tiles (the root result, whose
  // ownership passes to the caller at the end of the run).
  void ReleaseCharge(std::uint64_t bytes);

  // --- Admission budget (fused chains under a finite memory SLA) ---
  // Before launching a tile task, the executor reserves the task's
  // projected output bytes against the budget; the reservation stays in
  // place until the task finishes (its produced tiles Charge() real bytes
  // meanwhile, so current + reserved briefly double-counts a running
  // task's output — a conservative overestimate, never an undercount).

  // 0 means unlimited: every TryReserve succeeds.
  void set_budget_bytes(std::uint64_t bytes) {
    budget_.store(bytes, std::memory_order_relaxed);
  }
  std::uint64_t budget_bytes() const {
    return budget_.load(std::memory_order_relaxed);
  }

  // Admits `bytes` if charged + reserved + bytes stays within the budget;
  // returns false (reserving nothing) otherwise.
  bool TryReserve(std::uint64_t bytes);

  // Unconditional admission — the deadlock-free fallback for the oldest
  // blocked task when nothing is in flight. May push the projection past
  // the budget; callers count these (`atmult.fused.admission.forced`).
  void ForceReserve(std::uint64_t bytes) {
    reserved_.fetch_add(bytes, std::memory_order_relaxed);
  }

  void ReleaseReservation(std::uint64_t bytes) {
    reserved_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  std::uint64_t current_bytes() const {
    return current_.load(std::memory_order_relaxed);
  }
  std::uint64_t reserved_bytes() const {
    return reserved_.load(std::memory_order_relaxed);
  }
  std::uint64_t peak_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> current_{0};
  std::atomic<std::uint64_t> reserved_{0};
  std::atomic<std::uint64_t> peak_{0};
  std::atomic<std::uint64_t> budget_{0};
};

}  // namespace atmx

#endif  // ATMX_TILE_TILE_LIFETIME_H_
