// Seeded request inputs of the four workloads. Everything here is a pure
// function of the seed (and, for the admission churn, of the replies the
// program returned, which are themselves deterministic), so a run can be
// replayed in-process byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace bench {

/// A request line without its id: `"op":...,"params":{...}}`.
/// with_id() prefixes `{"id":N,`.
std::string with_id(long id, const std::string& body);

// ---- serve_hot -----------------------------------------------------------

/// Size of the hot request population: well under papd's 4096-entry LRU.
constexpr std::size_t kHotPopulation = 384;

/// The distinct stateless requests serve_hot cycles through: 2-app
/// admission_check (half), wcd_bound and nc_delay (a quarter each).
std::vector<std::string> hot_population(std::uint64_t seed);

/// Which population member request `id` carries (seeded, uniform).
std::size_t hot_member(std::uint64_t seed, long id);

// ---- serve_cold ----------------------------------------------------------

/// Request `index` of the never-repeating cold mix: admission_check with
/// 2..16 apps on an 8x8 mesh, wcd_bound over write rate x n x dram.policy x
/// dram.device, and nc_delay, with full-precision random knobs so no two
/// requests share a cache key.
std::string cold_body(std::uint64_t seed, long index);

// ---- admit_churn ---------------------------------------------------------

constexpr int kChurnMesh = 16;
/// Admissions offered before timing starts, and the resident population
/// the timed admit/release mix then hovers around.
constexpr int kChurnPrefill = 480;
constexpr double kChurnTarget = 435.0;

/// The resource-manager side of the churn: offers admits of fresh apps and
/// releases of resident ones. Which apps are resident is learnt from the
/// replies, so the offered sequence follows the program's own decisions.
class ChurnGen {
 public:
  explicit ChurnGen(std::uint64_t seed) : rng_(seed ^ 0xC4u) {}
  /// Next decision body for `session`: an admit while prefilling, then an
  /// admit/release mix that holds the population near kChurnTarget.
  std::string next(long session, bool prefill);
  /// Feed the reply of the last body back (admitted apps become resident).
  void observe(std::string_view reply);
  std::size_t resident() const { return resident_.size(); }

 private:
  Rng rng_;
  long next_app_ = 1;
  std::vector<long> resident_;  // admitted apps; releases pick one at random
  long pending_app_ = 0;
  bool pending_admit_ = false;
};

std::string churn_open_body();

// ---- sim_families ---------------------------------------------------------

/// Member i of the run. Members go round-robin over flash_crowd, diurnal,
/// mode_storm, hog_mix, hog_mix, hog_mix, so every run holds the same family
/// mix. Member cost spreads from 2 to 90 ms, and the flash_crowd and diurnal
/// members are bimodal, with a sparse stretch between 10 and 30 ms; hog_mix
/// (3-11 ms) comes three times so that the member median falls in the dense
/// cheap mass, where it moves least from one seed's members to another's.
struct Member {
  std::string family;
  int index = 0;
};
Member sim_member(long i);

/// The reference member sim_families runs between members to read the
/// host's speed: hog_mix #5 of seed 6, about 1.5 ms, the cheapest of the
/// first six members of each family over seeds 1..10.
inline const Member kRefMember{"hog_mix", 5};
constexpr int kRefSeed = 6;

}  // namespace bench
