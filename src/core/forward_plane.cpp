#include "core/forward_plane.h"

#include <cmath>

#include "channel/channel_batch.h"
#include "channel/channel_model.h"
#include "common/constants.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "signal/noise.h"

namespace rfly::core {

namespace {

// Plane telemetry. `channel_evals` is the headline counter the acceptance
// bench asserts on: per-waypoint channel evaluations charged to the measure
// stage — one per waypoint per plane *build* (cache hits charge nothing),
// instead of the scalar path's ~5 per waypoint per tag.
obs::Counter& plane_builds() {
  static obs::Counter& c = obs::counter("measure.plane.builds");
  return c;
}
obs::Counter& plane_channel_evals() {
  static obs::Counter& c = obs::counter("measure.plane.channel_evals");
  return c;
}

}  // namespace

// Fields that cannot change plane values (tag EPC, noise/ripple/shadowing
// stds, thresholds) stay out of the key: they act in the collect loop, which
// always reads them from the live system.
std::string plane_key(const RflySystem& system,
                      const std::vector<drone::FlownPoint>& flight) {
  const SystemConfig& cfg = system.config();
  const auto& obstacles = system.environment().obstacles();
  std::string key;
  key.reserve((20 + obstacles.size() * 7 + flight.size() * 3) * sizeof(double));
  const auto push = [&key](double value) {
    key.append(reinterpret_cast<const char*>(&value), sizeof value);
  };
  const Vec3& reader = system.reader_position();
  push(reader.x);
  push(reader.y);
  push(reader.z);
  push(cfg.carrier_hz);
  push(cfg.freq_shift_hz);
  push(cfg.reader_eirp_dbm);
  push(cfg.reader_rx_gain_dbi);
  push(cfg.relay_downlink_gain_db);
  push(cfg.relay_uplink_gain_db);
  push(cfg.relay_downlink_p1db_dbm);
  push(cfg.relay_uplink_max_out_dbm);
  push(cfg.relay_antenna_gain_dbi);
  push(cfg.relay_hardware_phase_rad);
  push(cfg.embedded_coupling_db);
  push(cfg.tag.rho_on);
  push(cfg.tag.rho_off);
  push(cfg.tag.antenna_gain_dbi);
  push(static_cast<double>(obstacles.size()));
  for (const auto& ob : obstacles) {
    push(ob.footprint.a.x);
    push(ob.footprint.a.y);
    push(ob.footprint.b.x);
    push(ob.footprint.b.y);
    push(ob.height_m);
    push(ob.material.transmission_loss_db);
    push(ob.material.reflection_loss_db);
  }
  push(static_cast<double>(flight.size()));
  for (const auto& point : flight) {
    push(point.actual.x);
    push(point.actual.y);
    push(point.actual.z);
  }
  return key;
}

ForwardPlane ForwardPlane::build(const RflySystem& system,
                                 const std::vector<drone::FlownPoint>& flight) {
  const SystemConfig& cfg = system.config();
  const std::size_t n = flight.size();
  ForwardPlane plane;
  plane.px.resize(n);
  plane.py.resize(n);
  plane.pz.resize(n);
  plane.h1_re.resize(n);
  plane.h1_im.resize(n);
  plane.h1_pow.resize(n);
  plane.relay_tx_mw.resize(n);
  plane.g_d_amp.resize(n);
  plane.embedded.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3& a = flight[i].actual;
    plane.px[i] = a.x;
    plane.py[i] = a.y;
    plane.pz[i] = a.z;
    // The same public methods the scalar collect loop drives, called once
    // per waypoint.
    const cdouble h1 = system.reader_relay_channel(a);
    plane.h1_re[i] = h1.real();
    plane.h1_im[i] = h1.imag();
    plane.h1_pow[i] = h1.real() * h1.real() + h1.imag() * h1.imag();
    const double relay_rx_dbm = cfg.reader_eirp_dbm + amplitude_to_db(std::abs(h1));
    const double relay_tx_dbm = RflySystem::saturated_output_dbm(
        relay_rx_dbm, cfg.relay_downlink_gain_db, cfg.relay_downlink_p1db_dbm);
    plane.relay_tx_mw[i] = std::pow(10.0, relay_tx_dbm / 10.0);
    plane.g_d_amp[i] = db_to_amplitude(system.effective_downlink_gain_db(a));
    plane.embedded[i] = system.measured_embedded_channel(a);
  }
  plane_builds().inc();
  plane_channel_evals().add(n);
  return plane;
}

std::vector<SynthChannels> synthesize_forward_channels(
    const RflySystem& system, const ForwardPlane& plane,
    const std::vector<Vec3>& tag_positions,
    const ForwardKernelVariant* variant) {
  const ForwardKernelVariant& kern =
      variant != nullptr ? *variant : forward_kernel_active();
  const SystemConfig& cfg = system.config();
  const std::size_t n = plane.size();
  const std::size_t ntags = tag_positions.size();
  std::vector<SynthChannels> out(ntags);
  for (auto& synth : out) {
    synth.readable.assign(n, 0);
    synth.target_re.assign(n, 0.0);
    synth.target_im.assign(n, 0.0);
  }
  if (n == 0 || ntags == 0) return out;

  const double f2 = cfg.carrier_hz + cfg.freq_shift_hz;
  const double lambda2 = wavelength(f2);
  const double gain_amp =
      db_to_amplitude(cfg.relay_antenna_gain_dbi + cfg.tag.antenna_gain_dbi);
  const double drho = (cfg.tag.rho_on - cfg.tag.rho_off) / 2.0;

  ForwardKernelArgs args;
  args.count = n;
  args.px = plane.px.data();
  args.py = plane.py.data();
  args.pz = plane.pz.data();
  args.wavenumber = kTwoPi / lambda2;
  args.amp_over_d = lambda2 / (4.0 * kPi);

  // Per-tag relay→tag channel planes: vectorized direct distances, batched
  // multipath geometry, vectorized phasors, then a scalar segmented add
  // (reflection counts are small and variable per waypoint).
  std::vector<std::vector<double>> h2_re(ntags), h2_im(ntags);
  std::vector<double> ddir(n), dir_re(n), dir_im(n);
  std::vector<double> refl_re, refl_im;
  channel::BatchedPaths paths;
  for (std::size_t t = 0; t < ntags; ++t) {
    const Vec3& tag = tag_positions[t];
    args.tx = tag.x;
    args.ty = tag.y;
    args.tz = tag.z;
    args.dist = ddir.data();
    kern.distances(args, 0, n);
    channel::batch_link_paths(system.environment(), plane.px.data(),
                              plane.py.data(), plane.pz.data(), n, tag,
                              gain_amp, paths);
    args.path_d = ddir.data();
    args.path_amp = paths.direct_amp.data();
    args.out_re = dir_re.data();
    args.out_im = dir_im.data();
    args.n_paths = n;
    kern.phasors(args, 0, n);
    const std::size_t n_refl = paths.refl_d.size();
    refl_re.resize(n_refl);
    refl_im.resize(n_refl);
    if (n_refl > 0) {
      args.path_d = paths.refl_d.data();
      args.path_amp = paths.refl_amp.data();
      args.out_re = refl_re.data();
      args.out_im = refl_im.data();
      args.n_paths = n_refl;
      kern.phasors(args, 0, n_refl);
    }
    h2_re[t].resize(n);
    h2_im[t].resize(n);
    for (std::size_t w = 0; w < n; ++w) {
      double re = dir_re[w];
      double im = dir_im[w];
      for (std::uint32_t p = paths.offsets[w]; p < paths.offsets[w + 1]; ++p) {
        re += refl_re[p];
        im += refl_im[p];
      }
      h2_re[t][w] = re;
      h2_im[t][w] = im;
    }
  }

  // Per-tag direct reader→tag term hd²·drho — the scalar path's per-tag
  // constant, via the same scalar channel call.
  std::vector<double> direct_re(ntags, 0.0), direct_im(ntags, 0.0);
  if (cfg.include_direct_path) {
    for (std::size_t t = 0; t < ntags; ++t) {
      channel::LinkGains gains;
      gains.rx_gain_dbi = cfg.tag.antenna_gain_dbi;
      const cdouble hd = channel::point_to_point_channel(
          system.environment(), system.reader_position(), tag_positions[t],
          cfg.carrier_hz, gains);
      const cdouble term = hd * hd * drho;
      direct_re[t] = term.real();
      direct_im[t] = term.imag();
    }
  }

  // Multi-tag synthesize pass: linear-domain constants folded once.
  std::vector<const double*> h2re_ptrs(ntags), h2im_ptrs(ntags);
  std::vector<double*> ore_ptrs(ntags), oim_ptrs(ntags);
  std::vector<std::uint8_t*> mask_ptrs(ntags);
  for (std::size_t t = 0; t < ntags; ++t) {
    h2re_ptrs[t] = h2_re[t].data();
    h2im_ptrs[t] = h2_im[t].data();
    ore_ptrs[t] = out[t].target_re.data();
    oim_ptrs[t] = out[t].target_im.data();
    mask_ptrs[t] = out[t].readable.data();
  }
  args.h1_re = plane.h1_re.data();
  args.h1_im = plane.h1_im.data();
  args.h1_pow = plane.h1_pow.data();
  args.relay_tx_mw = plane.relay_tx_mw.data();
  args.g_d_amp = plane.g_d_amp.data();
  args.h2_re_tags = h2re_ptrs.data();
  args.h2_im_tags = h2im_ptrs.data();
  args.direct_re = direct_re.data();
  args.direct_im = direct_im.data();
  args.tags = ntags;
  args.drho = drho;
  args.drho2 = drho * drho;
  args.sens_mw = std::pow(10.0, cfg.tag.sensitivity_dbm / 10.0);
  args.g_up_pow = from_db(cfg.relay_uplink_gain_db);
  args.g_up_amp = db_to_amplitude(cfg.relay_uplink_gain_db);
  args.up_cap_mw = std::pow(10.0, cfg.relay_uplink_max_out_dbm / 10.0);
  args.rx_pow = from_db(cfg.reader_rx_gain_dbi);
  args.rx_amp = db_to_amplitude(cfg.reader_rx_gain_dbi);
  const double noise_dbm = watts_to_dbm(signal::thermal_noise_power(
      2.0 * cfg.blf_hz, cfg.reader_noise_figure_db));
  args.decode_floor_mw =
      std::pow(10.0, (noise_dbm + cfg.decode_snr_threshold_db) / 10.0);
  const cdouble hw = cis(cfg.relay_hardware_phase_rad);
  args.hw_re = hw.real();
  args.hw_im = hw.imag();
  args.out_re_tags = ore_ptrs.data();
  args.out_im_tags = oim_ptrs.data();
  args.readable_tags = mask_ptrs.data();
  kern.synthesize(args, 0, n);
  return out;
}

ContentCache<ForwardPlane>& global_forward_plane_cache() {
  static ContentCache<ForwardPlane> cache("forward_plane_cache",
                                          kDefaultCacheCapacity);
  return cache;
}

}  // namespace rfly::core
