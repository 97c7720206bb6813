#include "core/inventory.h"

#include <algorithm>

#include "obs/metrics.h"

namespace rfly::core {

namespace {
// Gen2 air-interface telemetry, folded in once per inventory round from the
// outcome tallies (the slot loop itself stays probe-free).
obs::Counter& gen2_rounds() {
  static obs::Counter& c = obs::counter("gen2.rounds");
  return c;
}
obs::Counter& gen2_slots() {
  static obs::Counter& c = obs::counter("gen2.slots");
  return c;
}
obs::Counter& gen2_collisions() {
  static obs::Counter& c = obs::counter("gen2.collisions");
  return c;
}
obs::Counter& gen2_epcs() {
  static obs::Counter& c = obs::counter("gen2.epcs_read");
  return c;
}
obs::Histogram& gen2_rounds_per_inventory() {
  static obs::Histogram& h = obs::histogram("gen2.rounds_per_inventory",
                                            obs::HistogramSpec::counts());
  return h;
}
}  // namespace

void InventoryDatabase::add(const gen2::Epc& epc, std::string description) {
  items_[epc] = std::move(description);
}

const std::string& InventoryDatabase::lookup(const gen2::Epc& epc) const {
  const auto it = items_.find(epc);
  return it == items_.end() ? empty_ : it->second;
}

gen2::Epc make_epc(std::uint32_t index) {
  gen2::Epc epc{};
  // Company-prefix-style header, index in the low bytes.
  epc[0] = 0x30;
  epc[1] = 0x14;
  epc[8] = static_cast<std::uint8_t>(index >> 24);
  epc[9] = static_cast<std::uint8_t>(index >> 16);
  epc[10] = static_cast<std::uint8_t>(index >> 8);
  epc[11] = static_cast<std::uint8_t>(index);
  return epc;
}

namespace {

struct SlotReply {
  std::size_t tag_index;
  gen2::TagReply reply;
};

/// The tags still taking part in a round: ascending indices of every tag
/// whose state left kReady at the round's Query. QueryRep, QueryAdjust and
/// ACK go only to these tags. That is exact: a kReady tag ignores all
/// three, and an unpowered tag is kReady and only repeats the idempotent
/// power_cycle() it already ran at the Query. A tag that drops back to
/// kReady never rejoins before the next Query, so the list only shrinks,
/// and replies still arrive in index order.
class RoundMembers {
 public:
  /// Send the round's Query to every tag and enlist those that entered.
  void open(std::vector<TagAgent>& tags, const gen2::Command& query,
            const InventoryRoundConfig& cfg, std::vector<SlotReply>& replies) {
    replies.clear();
    members_.clear();
    gen2::CommandContext ctx;
    ctx.trcal_s = cfg.trcal_s;
    for (std::size_t i = 0; i < tags.size(); ++i) {
      ctx.incident_power_dbm = tags[i].incident_power_dbm;
      if (auto reply = tags[i].tag->on_command(query, ctx)) {
        replies.push_back({i, std::move(*reply)});
      }
      if (tags[i].tag->state() != gen2::TagState::kReady) members_.push_back(i);
    }
  }

  /// Send a QueryRep, QueryAdjust or ACK to the members, collecting replies
  /// in index order and dropping every member that fell back to kReady.
  void send(std::vector<TagAgent>& tags, const gen2::Command& cmd,
            std::vector<SlotReply>& replies) {
    replies.clear();
    gen2::CommandContext ctx;
    std::size_t kept = 0;
    for (const std::size_t i : members_) {
      ctx.incident_power_dbm = tags[i].incident_power_dbm;
      if (auto reply = tags[i].tag->on_command(cmd, ctx)) {
        replies.push_back({i, std::move(*reply)});
      }
      if (tags[i].tag->state() != gen2::TagState::kReady) members_[kept++] = i;
    }
    members_.resize(kept);
  }

 private:
  std::vector<std::size_t> members_;
};

}  // namespace

InventoryOutcome run_inventory(std::vector<TagAgent>& tags,
                               const InventoryRoundConfig& config,
                               reader::QAlgorithm& q_algorithm, Rng& rng) {
  InventoryOutcome outcome;
  int q = config.q;
  int unproductive_rounds = 0;
  RoundMembers members;
  std::vector<SlotReply> replies;
  std::vector<SlotReply> epc_replies;

  for (int round = 0; round < config.max_rounds; ++round) {
    outcome.rounds = round + 1;
    const std::size_t before = outcome.epcs.size();

    gen2::QueryCommand query;
    query.session = config.session;
    query.target = config.target;
    query.sel = config.sel_target;
    query.q = static_cast<std::uint8_t>(q);
    members.open(tags, gen2::Command{query}, config, replies);

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
        // Decode gated on SNR (with a fresh fading draw per attempt).
        const bool decodable =
            rn16 && agent.reply_snr_db + rng.gaussian(0.0, 1.0) >=
                        config.decode_snr_threshold_db;
        if (decodable) {
          gen2::AckCommand ack{rn16->rn16};
          members.send(tags, gen2::Command{ack}, epc_replies);
          if (epc_replies.size() == 1) {
            const auto epc = gen2::decode_epc_reply(epc_replies.front().reply.bits);
            if (epc) outcome.epcs.push_back(epc->epc);
          }
        }
      } else {
        ++outcome.collisions;
        q_algorithm.on_slot(reader::SlotOutcome::kCollision);
      }

      // Mid-round Q adaptation via QueryAdjust (tags redraw their slots);
      // otherwise advance to the next slot with QueryRep.
      if (q_algorithm.q() != q) {
        gen2::QueryAdjustCommand adjust;
        adjust.session = config.session;
        adjust.q_delta = (q_algorithm.q() > q) ? 1 : -1;
        q += adjust.q_delta;
        members.send(tags, gen2::Command{adjust}, replies);
        slots_remaining = 1 << q;
      } else {
        gen2::QueryRepCommand rep;
        rep.session = config.session;
        members.send(tags, gen2::Command{rep}, replies);
      }
    }

    q = q_algorithm.q();
    // Collisions can make individual rounds unproductive (e.g. two
    // remaining tags drawing the same slot in a small round); only give up
    // after several barren rounds in a row.
    unproductive_rounds = (outcome.epcs.size() == before) ? unproductive_rounds + 1 : 0;
    if (unproductive_rounds >= 4) break;
  }
  outcome.final_q = q;
  gen2_rounds().add(static_cast<std::uint64_t>(outcome.rounds));
  gen2_slots().add(static_cast<std::uint64_t>(outcome.slots));
  gen2_collisions().add(static_cast<std::uint64_t>(outcome.collisions));
  gen2_epcs().add(outcome.epcs.size());
  gen2_rounds_per_inventory().observe(static_cast<double>(outcome.rounds));
  return outcome;
}

}  // namespace rfly::core
