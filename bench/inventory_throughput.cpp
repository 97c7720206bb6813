// Extension: Gen2 inventory throughput through the relay. The drone has
// finite loiter time per aisle; reads/second determines how fast a
// warehouse can be swept. Airtime is modeled from the real frame durations
// (PIE command lengths, T1 gaps, FM0 reply lengths at BLF 500 kHz), and the
// slot outcomes come from the protocol engine with physical collisions.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/inventory.h"
#include "gen2/fm0.h"
#include "gen2/pie.h"

using namespace rfly;
using namespace rfly::core;

namespace {

/// Airtime model for one inventory run, from the protocol transcript.
struct Airtime {
  double total_s = 0.0;

  void add_command(const gen2::Bits& bits, bool with_trcal) {
    gen2::PieConfig pie;
    total_s += gen2::pie_frame_duration(bits, pie, with_trcal);
    total_s += 62.5e-6;  // T1
  }
  void add_reply(std::size_t n_bits) {
    total_s += static_cast<double>(gen2::fm0_half_bits(n_bits)) /
               (2.0 * 500e3);
    total_s += 62.5e-6;  // T2 before the next command
  }
};

/// `population` tags with distinct EPCs and seeds.
std::vector<gen2::Tag> make_population(int population) {
  std::vector<gen2::Tag> tags;
  tags.reserve(static_cast<std::size_t>(population));
  for (int i = 0; i < population; ++i) {
    gen2::TagConfig cfg;
    cfg.epc = make_epc(static_cast<std::uint32_t>(i));
    tags.emplace_back(cfg, 3000 + static_cast<std::uint64_t>(i));
  }
  return tags;
}

/// Simulator cost of run_inventory against population size: ns per slot
/// should stay about flat, because QueryRep, QueryAdjust and ACK reach only
/// the tags still in the round. The undecodable mix keeps every tenth tag
/// powered but below the decode SNR, so those tags re-reply in every round
/// (the fleet's situation) and rounds run to the slot cap.
void simulator_cost() {
  std::printf("\nSimulator cost of run_inventory (initial Q 4, at most 16 rounds):\n");
  std::printf("  population   mix           slots    rounds   reads   ms        ns_per_slot   ns_per_slot_tag\n");
  for (int population : {100, 1000, 5000}) {
    for (bool undecodable : {false, true}) {
      auto tags = make_population(population);
      std::vector<TagAgent> agents;
      for (std::size_t i = 0; i < tags.size(); ++i) {
        agents.push_back({&tags[i], -5.0, undecodable && i % 10 == 9 ? -20.0 : 20.0});
      }
      reader::QAlgorithm q_algo(4.0);
      Rng rng(static_cast<std::uint64_t>(population) * 2 + (undecodable ? 1 : 0));
      InventoryRoundConfig round;
      round.q = 4;
      round.max_rounds = 16;
      const auto t0 = std::chrono::steady_clock::now();
      const auto outcome = run_inventory(agents, round, q_algo, rng);
      const double ns = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      const double slots = static_cast<double>(std::max(outcome.slots, 1));
      std::printf("  %10d   %-11s   %6d   %6d   %5zu   %7.1f   %11.0f   %15.2f\n",
                  population, undecodable ? "10% undec." : "all powered",
                  outcome.slots, outcome.rounds, outcome.epcs.size(), ns * 1e-6,
                  ns / slots, ns / (slots * static_cast<double>(population)));
    }
  }
}

}  // namespace

int main() {
  bench::header("Ext. throughput", "inventory reads/second vs population and Q");

  std::printf("  population   initial_q   slots   collisions   reads   reads_per_s\n");
  for (int population : {5, 20, 50, 100}) {
    for (int q0 : {2, 4, 6}) {
      auto tags = make_population(population);
      std::vector<TagAgent> agents;
      for (auto& t : tags) agents.push_back({&t, -5.0, 20.0});

      reader::QAlgorithm q_algo(static_cast<double>(q0));
      Rng rng(static_cast<std::uint64_t>(population * 10 + q0));
      InventoryRoundConfig round;
      round.q = q0;
      round.max_rounds = 32;
      const auto outcome = run_inventory(agents, round, q_algo, rng);

      // Airtime: one Query per round, one QueryRep/QueryAdjust per slot,
      // one RN16 per single, ACK + EPC reply per read.
      Airtime air;
      gen2::QueryCommand query;
      for (int r = 0; r < outcome.rounds; ++r) {
        air.add_command(gen2::encode(query), true);
      }
      for (int s = 0; s < outcome.slots; ++s) {
        air.add_command(gen2::encode(gen2::QueryRepCommand{}), false);
      }
      for (int s = 0; s < outcome.singles + outcome.collisions; ++s) {
        air.add_reply(gen2::kRn16Bits);
      }
      for (std::size_t s = 0; s < outcome.epcs.size(); ++s) {
        air.add_command(gen2::encode(gen2::AckCommand{}), false);
        air.add_reply(gen2::kEpcReplyBits);
      }

      std::printf("  %10d   %9d   %5d   %10d   %5zu   %11.0f\n", population, q0,
                  outcome.slots, outcome.collisions, outcome.epcs.size(),
                  static_cast<double>(outcome.epcs.size()) / air.total_s);
    }
  }

  std::printf("\nGen2 readers sustain ~100-400 reads/s depending on slot tuning;\n"
              "a well-matched Q wastes few slots on empties or collisions. The\n"
              "relay adds no protocol overhead (it is transparent), so sweep\n"
              "time is flight-path-limited, not protocol-limited.\n");
  simulator_cost();
  return 0;
}
