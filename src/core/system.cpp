#include "core/system.h"

#include <algorithm>
#include <cmath>

#include "channel/link_budget.h"
#include "channel/path_loss.h"
#include "common/constants.h"
#include "common/units.h"
#include "core/forward_plane.h"
#include "signal/noise.h"

namespace rfly::core {

RflySystem::RflySystem(const SystemConfig& config, channel::Environment environment,
                       const Vec3& reader_position)
    : config_(config),
      environment_(std::move(environment)),
      reader_position_(reader_position) {}

double RflySystem::backscatter_delta_rho() const {
  return (config_.tag.rho_on - config_.tag.rho_off) / 2.0;
}

cdouble RflySystem::reader_relay_channel(const Vec3& relay_pos) const {
  channel::LinkGains gains;
  gains.tx_gain_dbi = 0.0;  // reader EIRP already includes its antenna
  gains.rx_gain_dbi = config_.relay_antenna_gain_dbi;
  return channel::point_to_point_channel(environment_, reader_position_, relay_pos,
                                         config_.carrier_hz, gains);
}

cdouble RflySystem::relay_tag_channel(const Vec3& relay_pos, const Vec3& tag_pos) const {
  channel::LinkGains gains;
  gains.tx_gain_dbi = config_.relay_antenna_gain_dbi;
  gains.rx_gain_dbi = config_.tag.antenna_gain_dbi;
  return channel::point_to_point_channel(environment_, relay_pos, tag_pos,
                                         config_.carrier_hz + config_.freq_shift_hz,
                                         gains);
}

double RflySystem::effective_downlink_gain_db(const Vec3& relay_pos) const {
  const double rx_dbm = config_.reader_eirp_dbm +
                        amplitude_to_db(std::abs(reader_relay_channel(relay_pos)));
  return saturated_gain_db(rx_dbm, config_.relay_downlink_gain_db,
                           config_.relay_downlink_p1db_dbm);
}

double RflySystem::effective_uplink_gain_db(const Vec3& relay_pos,
                                            const Vec3& tag_pos) const {
  // Uplink drive: the tag's backscatter arriving at the relay.
  const double backscatter_dbm =
      tag_incident_power_dbm(relay_pos, tag_pos) +
      amplitude_to_db(backscatter_delta_rho()) +
      amplitude_to_db(std::abs(relay_tag_channel(relay_pos, tag_pos)));
  return saturated_gain_db(backscatter_dbm, config_.relay_uplink_gain_db,
                           config_.relay_uplink_max_out_dbm);
}

double RflySystem::tag_incident_power_dbm(const Vec3& relay_pos,
                                          const Vec3& tag_pos) const {
  const double relay_rx_dbm =
      config_.reader_eirp_dbm +
      amplitude_to_db(std::abs(reader_relay_channel(relay_pos)));
  const double relay_tx_dbm =
      saturated_output_dbm(relay_rx_dbm, config_.relay_downlink_gain_db,
                           config_.relay_downlink_p1db_dbm);
  return relay_tx_dbm +
         amplitude_to_db(std::abs(relay_tag_channel(relay_pos, tag_pos)));
}

double RflySystem::direct_tag_incident_power_dbm(const Vec3& tag_pos) const {
  channel::LinkGains gains;
  gains.rx_gain_dbi = config_.tag.antenna_gain_dbi;
  const cdouble h = channel::point_to_point_channel(
      environment_, reader_position_, tag_pos, config_.carrier_hz, gains);
  return config_.reader_eirp_dbm + amplitude_to_db(std::abs(h));
}

double RflySystem::reply_snr_db(const Vec3& relay_pos, const Vec3& tag_pos) const {
  const double backscatter_at_relay_dbm =
      tag_incident_power_dbm(relay_pos, tag_pos) +
      amplitude_to_db(backscatter_delta_rho()) +
      amplitude_to_db(std::abs(relay_tag_channel(relay_pos, tag_pos)));
  const double relay_out_dbm =
      saturated_output_dbm(backscatter_at_relay_dbm, config_.relay_uplink_gain_db,
                           config_.relay_uplink_max_out_dbm);
  const double at_reader_dbm = relay_out_dbm +
                               amplitude_to_db(std::abs(reader_relay_channel(relay_pos))) +
                               config_.reader_rx_gain_dbi;
  const double noise_dbm = watts_to_dbm(signal::thermal_noise_power(
      2.0 * config_.blf_hz, config_.reader_noise_figure_db));
  return at_reader_dbm - noise_dbm;
}

double RflySystem::direct_reply_snr_db(const Vec3& tag_pos) const {
  channel::LinkGains gains;
  gains.rx_gain_dbi = config_.tag.antenna_gain_dbi;
  const cdouble h = channel::point_to_point_channel(
      environment_, reader_position_, tag_pos, config_.carrier_hz, gains);
  const double at_reader_dbm = config_.reader_eirp_dbm +
                               2.0 * amplitude_to_db(std::abs(h)) +
                               amplitude_to_db(backscatter_delta_rho()) +
                               config_.reader_rx_gain_dbi;
  const double noise_dbm = watts_to_dbm(signal::thermal_noise_power(
      2.0 * config_.blf_hz, config_.reader_noise_figure_db));
  return at_reader_dbm - noise_dbm;
}

bool RflySystem::tag_readable(const Vec3& relay_pos, const Vec3& tag_pos,
                              Rng& rng) const {
  const double shadow_down = rng.gaussian(0.0, config_.shadowing_std_db);
  const double shadow_up = rng.gaussian(0.0, config_.shadowing_std_db);
  const bool powered = tag_incident_power_dbm(relay_pos, tag_pos) + shadow_down >=
                       config_.tag.sensitivity_dbm;
  const bool decodable = reply_snr_db(relay_pos, tag_pos) + shadow_up >=
                         config_.decode_snr_threshold_db;
  return powered && decodable;
}

bool RflySystem::tag_readable_direct(const Vec3& tag_pos, Rng& rng) const {
  const double shadow_down = rng.gaussian(0.0, config_.shadowing_std_db);
  const double shadow_up = rng.gaussian(0.0, config_.shadowing_std_db);
  const bool powered = direct_tag_incident_power_dbm(tag_pos) + shadow_down >=
                       config_.tag.sensitivity_dbm;
  const bool decodable =
      direct_reply_snr_db(tag_pos) + shadow_up >= config_.decode_snr_threshold_db;
  return powered && decodable;
}

cdouble RflySystem::measured_target_channel(const Vec3& relay_pos,
                                            const Vec3& tag_pos) const {
  const cdouble h1 = reader_relay_channel(relay_pos);
  const cdouble h2 = relay_tag_channel(relay_pos, tag_pos);
  const double g_d = db_to_amplitude(effective_downlink_gain_db(relay_pos));
  const double g_u = db_to_amplitude(effective_uplink_gain_db(relay_pos, tag_pos));
  const cdouble hw = cis(config_.relay_hardware_phase_rad);

  cdouble h = h1 * h1 * g_d * g_u * backscatter_delta_rho() * h2 * h2 * hw *
              db_to_amplitude(config_.reader_rx_gain_dbi);

  if (config_.include_direct_path) {
    channel::LinkGains gains;
    gains.rx_gain_dbi = config_.tag.antenna_gain_dbi;
    const cdouble hd = channel::point_to_point_channel(
        environment_, reader_position_, tag_pos, config_.carrier_hz, gains);
    h += hd * hd * backscatter_delta_rho();
  }
  return h;
}

cdouble RflySystem::measured_embedded_channel(const Vec3& relay_pos) const {
  const cdouble h1 = reader_relay_channel(relay_pos);
  // Uplink gain for the embedded tag: driven hard (close coupling), so the
  // uplink output cap applies via the same path with the wire coupling.
  const double wire = db_to_amplitude(config_.embedded_coupling_db);
  const double relay_rx_dbm =
      config_.reader_eirp_dbm + amplitude_to_db(std::abs(h1));
  const double relay_tx_dbm =
      saturated_output_dbm(relay_rx_dbm, config_.relay_downlink_gain_db,
                           config_.relay_downlink_p1db_dbm);
  const double backscatter_dbm = relay_tx_dbm +
                                 2.0 * config_.embedded_coupling_db +
                                 amplitude_to_db(backscatter_delta_rho());
  const double g_u_db =
      saturated_gain_db(backscatter_dbm, config_.relay_uplink_gain_db,
                        config_.relay_uplink_max_out_dbm);
  const cdouble hw = cis(config_.relay_hardware_phase_rad);
  return h1 * h1 * db_to_amplitude(effective_downlink_gain_db(relay_pos)) *
         db_to_amplitude(g_u_db + config_.reader_rx_gain_dbi) *
         backscatter_delta_rho() * wire * wire * hw;
}

double RflySystem::estimate_noise_sigma() const {
  if (!config_.channel_noise) return 0.0;
  // Coherent integration over T seconds: sigma^2 = N0 * NF / T. The channel
  // values are referenced to unit reader transmit amplitude, so scale by
  // the actual transmit power.
  const double n0 = dbm_to_watts(kThermalNoiseDbmPerHz) *
                    from_db(config_.reader_noise_figure_db);
  const double sigma_sq = n0 / config_.estimate_integration_s;
  const double tx_watts = dbm_to_watts(config_.reader_eirp_dbm);
  return std::sqrt(sigma_sq / tx_watts);
}

Expected<localize::MeasurementSet> RflySystem::collect_measurements(
    const std::vector<drone::FlownPoint>& flight, const Vec3& tag_pos,
    Rng& rng) const {
  const ForwardPlane plane = ForwardPlane::build(*this, flight);
  const std::vector<SynthChannels> synth =
      synthesize_forward_channels(*this, plane, {tag_pos});
  return collect_measurements(flight, rng, plane, synth.front());
}

// Channels and readability precomputed by the forward kernels (RNG-free),
// so this loop only sequences the stochastic draws, in the order the RNG
// contract in system.h documents.
Expected<localize::MeasurementSet> RflySystem::collect_measurements(
    const std::vector<drone::FlownPoint>& flight, Rng& rng,
    const ForwardPlane& plane, const SynthChannels& synth) const {
  if (flight.empty()) {
    return Status{StatusCode::kEmptyFlightPlan,
                  "cannot collect measurements over an empty flight"};
  }
  localize::MeasurementSet set;
  set.reserve(flight.size());
  const double sigma = estimate_noise_sigma();
  for (std::size_t i = 0; i < flight.size(); ++i) {
    if (!synth.readable[i]) {
      continue;
    }
    localize::RelayMeasurement m;
    m.relay_position = flight[i].reported;
    m.target_channel = cdouble{synth.target_re[i], synth.target_im[i]};
    m.embedded_channel = plane.embedded[i];
    if (config_.amplitude_ripple_std_db > 0.0 || config_.phase_ripple_std_rad > 0.0) {
      m.target_channel *=
          db_to_amplitude(rng.gaussian(0.0, config_.amplitude_ripple_std_db)) *
          cis(rng.gaussian(0.0, config_.phase_ripple_std_rad));
    }
    if (sigma > 0.0) {
      m.target_channel += cdouble{rng.gaussian(0.0, sigma / std::sqrt(2.0)),
                                  rng.gaussian(0.0, sigma / std::sqrt(2.0))};
      m.embedded_channel += cdouble{rng.gaussian(0.0, sigma / std::sqrt(2.0)),
                                    rng.gaussian(0.0, sigma / std::sqrt(2.0))};
    }
    set.push_back(m);
  }
  if (set.empty()) {
    return Status{StatusCode::kInsufficientData,
                  "tag unpowered or undecodable at all " +
                      std::to_string(flight.size()) + " flight points"};
  }
  return set;
}

double RflySystem::rssi_reference_magnitude_at_1m() const {
  // |h_iso| = |h2|^2 * (wire coupling)^-2 with |h2| at 1 m free space.
  const double h2_1m =
      std::abs(channel::propagation_coefficient(
          1.0, config_.carrier_hz + config_.freq_shift_hz)) *
      db_to_amplitude(config_.relay_antenna_gain_dbi + config_.tag.antenna_gain_dbi);
  const double wire = db_to_amplitude(config_.embedded_coupling_db);
  return (h2_1m * h2_1m) / (wire * wire);
}

}  // namespace rfly::core
