// Parity of the active-set Gen2 inventory against the full-broadcast loop
// it replaced, plus slot-accounting invariants over the same populations.
//
// `reference_inventory` below is the earlier `run_inventory`, unchanged but
// for its obs tallies: it sends every QueryRep, QueryAdjust and ACK to
// every tag. The production
// loop sends them only to tags still in the round. Both run on twin
// populations (same configs, same per-tag seeds, same air conditions) and
// must agree on every outcome field, every tag's state, flags and RN16, the
// reader's RNG position, and each tag's RNG position (pinned by the replies
// to further Queries).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/inventory.h"

namespace rfly::core {
namespace {

struct SlotReply {
  std::size_t tag_index;
  gen2::TagReply reply;
};

std::vector<SlotReply> broadcast(std::vector<TagAgent>& tags,
                                 const gen2::Command& cmd,
                                 const InventoryRoundConfig& cfg) {
  std::vector<SlotReply> replies;
  for (std::size_t i = 0; i < tags.size(); ++i) {
    gen2::CommandContext ctx;
    ctx.incident_power_dbm = tags[i].incident_power_dbm;
    if (std::holds_alternative<gen2::QueryCommand>(cmd)) {
      ctx.trcal_s = cfg.trcal_s;
    }
    if (auto reply = tags[i].tag->on_command(cmd, ctx)) {
      replies.push_back({i, *reply});
    }
  }
  return replies;
}

/// The full-broadcast inventory loop, without the obs tallies.
InventoryOutcome reference_inventory(std::vector<TagAgent>& tags,
                                     const InventoryRoundConfig& config,
                                     reader::QAlgorithm& q_algorithm, Rng& rng) {
  InventoryOutcome outcome;
  int q = config.q;
  int unproductive_rounds = 0;

  for (int round = 0; round < config.max_rounds; ++round) {
    outcome.rounds = round + 1;
    const std::size_t before = outcome.epcs.size();

    gen2::QueryCommand query;
    query.session = config.session;
    query.target = config.target;
    query.sel = config.sel_target;
    query.q = static_cast<std::uint8_t>(q);
    std::vector<SlotReply> replies = broadcast(tags, gen2::Command{query}, config);

    int slots_remaining = 1 << q;
    int safety = 1 << 14;
    while (slots_remaining-- > 0 && safety-- > 0) {
      ++outcome.slots;
      if (replies.empty()) {
        ++outcome.empties;
        q_algorithm.on_slot(reader::SlotOutcome::kEmpty);
      } else if (replies.size() == 1) {
        ++outcome.singles;
        q_algorithm.on_slot(reader::SlotOutcome::kSingle);
        auto& agent = tags[replies.front().tag_index];
        const auto rn16 = gen2::decode_rn16(replies.front().reply.bits);
        const bool decodable =
            rn16 && agent.reply_snr_db + rng.gaussian(0.0, 1.0) >=
                        config.decode_snr_threshold_db;
        if (decodable) {
          gen2::AckCommand ack{rn16->rn16};
          auto epc_replies = broadcast(tags, gen2::Command{ack}, config);
          if (epc_replies.size() == 1) {
            const auto epc = gen2::decode_epc_reply(epc_replies.front().reply.bits);
            if (epc) outcome.epcs.push_back(epc->epc);
          }
        }
      } else {
        ++outcome.collisions;
        q_algorithm.on_slot(reader::SlotOutcome::kCollision);
      }

      if (q_algorithm.q() != q) {
        gen2::QueryAdjustCommand adjust;
        adjust.session = config.session;
        adjust.q_delta = (q_algorithm.q() > q) ? 1 : -1;
        q += adjust.q_delta;
        replies = broadcast(tags, gen2::Command{adjust}, config);
        slots_remaining = 1 << q;
      } else {
        gen2::QueryRepCommand rep;
        rep.session = config.session;
        replies = broadcast(tags, gen2::Command{rep}, config);
      }
    }

    q = q_algorithm.q();
    unproductive_rounds = (outcome.epcs.size() == before) ? unproductive_rounds + 1 : 0;
    if (unproductive_rounds >= 4) break;
  }
  outcome.final_q = q;
  return outcome;
}

/// Air-interface mixes. Every mix keeps most tags powered and decodable.
enum class Mix {
  kAllPowered,
  kUnpowered,    // every 5th tag below sensitivity
  kUndecodable,  // every 7th tag powered but far below the decode SNR
  kMixed,        // both, plus tags exactly at sensitivity
  kSelectScoped  // Select-scoped rounds (SL) with non-matching tags
};

const char* mix_name(Mix mix) {
  switch (mix) {
    case Mix::kAllPowered: return "AllPowered";
    case Mix::kUnpowered: return "Unpowered";
    case Mix::kUndecodable: return "Undecodable";
    case Mix::kMixed: return "Mixed";
    case Mix::kSelectScoped: return "SelectScoped";
  }
  return "?";
}

struct ParityCase {
  std::size_t tags;
  int q;
  Mix mix;
  int max_rounds;
  gen2::Session session;
};

/// One population: tag machines plus the agents that drive them.
struct Population {
  std::vector<gen2::Tag> machines;
  std::vector<TagAgent> agents;
};

Population make_population(const ParityCase& c) {
  Population pop;
  pop.machines.reserve(c.tags);
  for (std::size_t i = 0; i < c.tags; ++i) {
    gen2::TagConfig cfg;
    cfg.epc = make_epc(static_cast<std::uint32_t>(i));
    pop.machines.emplace_back(cfg, 7000 + 31 * i);
  }
  for (std::size_t i = 0; i < c.tags; ++i) {
    TagAgent agent{&pop.machines[i], -5.0 - static_cast<double>(i % 9), 20.0};
    const bool mixed = c.mix == Mix::kMixed || c.mix == Mix::kSelectScoped;
    if ((c.mix == Mix::kUnpowered || mixed) && i % 5 == 3) {
      agent.incident_power_dbm = -40.0;
    }
    if ((c.mix == Mix::kUndecodable || mixed) && i % 7 == 2) {
      agent.reply_snr_db = -20.0;
    }
    if (mixed && i % 11 == 6) {
      agent.incident_power_dbm = pop.machines[i].config().sensitivity_dbm;
    }
    pop.agents.push_back(agent);
  }
  return pop;
}

/// Select on one EPC bit (action 0: matching tags assert SL, others clear).
void select_bit(Population& pop, std::uint8_t pointer) {
  gen2::SelectCommand select;
  select.pointer = pointer;
  select.mask = {1};
  for (auto& agent : pop.agents) {
    gen2::CommandContext ctx;
    ctx.incident_power_dbm = agent.incident_power_dbm;
    agent.tag->on_command(gen2::Command{select}, ctx);
  }
}

void expect_same_outcome(const InventoryOutcome& ref, const InventoryOutcome& got,
                         const std::string& where) {
  EXPECT_EQ(ref.epcs, got.epcs) << where;
  EXPECT_EQ(ref.slots, got.slots) << where;
  EXPECT_EQ(ref.empties, got.empties) << where;
  EXPECT_EQ(ref.singles, got.singles) << where;
  EXPECT_EQ(ref.collisions, got.collisions) << where;
  EXPECT_EQ(ref.rounds, got.rounds) << where;
  EXPECT_EQ(ref.final_q, got.final_q) << where;
}

void expect_same_tags(const Population& ref, const Population& got,
                      const std::string& where) {
  ASSERT_EQ(ref.machines.size(), got.machines.size());
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < ref.machines.size(); ++i) {
    const gen2::Tag& a = ref.machines[i];
    const gen2::Tag& b = got.machines[i];
    bool same = a.state() == b.state() && a.current_rn16() == b.current_rn16() &&
                a.sl_flag() == b.sl_flag();
    for (int s = 0; s < 4; ++s) {
      const auto session = static_cast<gen2::Session>(s);
      same = same && a.inventoried(session) == b.inventoried(session);
    }
    if (!same) {
      ++mismatched;
      ADD_FAILURE() << where << ": tag " << i << " differs";
      if (mismatched >= 5) return;
    }
  }
}

/// Send one Query to every tag of both populations and compare replies. A
/// q of 0 makes every participating tag draw its slot and an RN16 from its
/// own Rng, so equal replies pin each tag's RNG position.
void expect_same_next_query(Population& ref, Population& got,
                            const InventoryRoundConfig& cfg, gen2::InventoryFlag target,
                            const std::string& where) {
  gen2::QueryCommand query;
  query.session = cfg.session;
  query.target = target;
  query.q = 0;
  const auto a = broadcast(ref.agents, gen2::Command{query}, cfg);
  const auto b = broadcast(got.agents, gen2::Command{query}, cfg);
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].tag_index, b[k].tag_index) << where;
    EXPECT_EQ(a[k].reply.bits, b[k].reply.bits) << where;
  }
}

/// Gen2 accounting over one run_inventory call: every slot is exactly one
/// of empty/single/collision, and every EPC read belongs to a powered tag
/// of the population and is read at most once.
void expect_invariants(const InventoryOutcome& out, const Population& pop,
                       const std::string& where) {
  EXPECT_EQ(out.empties + out.singles + out.collisions, out.slots) << where;
  EXPECT_GE(out.singles, static_cast<int>(out.epcs.size())) << where;
  std::set<gen2::Epc> seen;
  for (const auto& epc : out.epcs) {
    EXPECT_TRUE(seen.insert(epc).second) << where << ": EPC read twice";
    const auto owner = std::find_if(
        pop.machines.begin(), pop.machines.end(),
        [&](const gen2::Tag& t) { return t.config().epc == epc; });
    ASSERT_NE(owner, pop.machines.end()) << where << ": EPC of no tag";
    const TagAgent& agent =
        pop.agents[static_cast<std::size_t>(owner - pop.machines.begin())];
    EXPECT_TRUE(owner->powered(agent.incident_power_dbm))
        << where << ": EPC read from an unpowered tag";
  }
}

class InventoryParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(InventoryParity, ActiveSetMatchesFullBroadcast) {
  const ParityCase& c = GetParam();
  Population ref = make_population(c);
  Population got = make_population(c);

  InventoryRoundConfig cfg;
  cfg.session = c.session;
  cfg.q = c.q;
  cfg.max_rounds = c.max_rounds;
  if (c.mix == Mix::kSelectScoped) {
    // Odd EPC indices assert SL; the round is scoped to them.
    select_bit(ref, 95);
    select_bit(got, 95);
    cfg.sel_target = gen2::SelTarget::kSl;
  }
  Rng ref_rng(900 + static_cast<std::uint64_t>(c.q));
  Rng got_rng(900 + static_cast<std::uint64_t>(c.q));

  // Back-to-back inventories: target A, then target B (the tags whose flag
  // flipped), then A again (the tags left over). Select-scoped runs
  // re-select on another bit between runs, so tags left mid-round by the
  // first run stop matching the next Query's Sel and keep their state.
  const gen2::InventoryFlag targets[] = {gen2::InventoryFlag::kA,
                                         gen2::InventoryFlag::kB,
                                         gen2::InventoryFlag::kA};
  for (int run = 0; run < 3; ++run) {
    const std::string where = "run " + std::to_string(run);
    cfg.target = targets[run];
    if (c.mix == Mix::kSelectScoped && run == 1) {
      select_bit(ref, 94);
      select_bit(got, 94);
    }
    reader::QAlgorithm ref_q(static_cast<double>(c.q));
    reader::QAlgorithm got_q(static_cast<double>(c.q));
    const auto expected = reference_inventory(ref.agents, cfg, ref_q, ref_rng);
    const auto actual = run_inventory(got.agents, cfg, got_q, got_rng);
    expect_same_outcome(expected, actual, where);
    EXPECT_EQ(ref_q.qfp(), got_q.qfp()) << where;
    EXPECT_TRUE(ref_rng.engine() == got_rng.engine()) << where << ": reader RNG";
    expect_same_tags(ref, got, where);
    expect_invariants(actual, got, where);
  }

  expect_same_next_query(ref, got, cfg, gen2::InventoryFlag::kA, "next query A");
  expect_same_next_query(ref, got, cfg, gen2::InventoryFlag::kB, "next query B");
  expect_same_tags(ref, got, "after next queries");
}

std::vector<ParityCase> parity_cases() {
  std::vector<ParityCase> cases;
  const Mix mixes[] = {Mix::kAllPowered, Mix::kUnpowered, Mix::kUndecodable,
                       Mix::kMixed, Mix::kSelectScoped};
  for (std::size_t tags : {std::size_t{1}, std::size_t{12}, std::size_t{100}}) {
    for (int q = 0; q <= 8; ++q) {
      for (Mix mix : mixes) {
        const gen2::Session session =
            q % 3 == 1 ? gen2::Session::kS2 : gen2::Session::kS0;
        cases.push_back({tags, q, mix, 6, session});
      }
    }
  }
  // Fleet-sized population: undecodable tags keep re-replying, so rounds
  // run to the slot cap; a few rounds are enough to cover it.
  for (int q : {0, 4, 8}) {
    cases.push_back({1000, q, Mix::kMixed, 2, gen2::Session::kS0});
    cases.push_back({1000, q, Mix::kSelectScoped, 2, gen2::Session::kS0});
  }
  cases.push_back({1000, 4, Mix::kAllPowered, 4, gen2::Session::kS1});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Populations, InventoryParity, ::testing::ValuesIn(parity_cases()),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      const ParityCase& c = info.param;
      return "Tags" + std::to_string(c.tags) + "_Q" + std::to_string(c.q) + "_" +
             mix_name(c.mix) + "_S" + std::to_string(static_cast<int>(c.session));
    });

}  // namespace
}  // namespace rfly::core
