// Bit-identity pins for the circuit Monte Carlo.
//
// Every constant below was captured from the straightforward model (each
// device current evaluated from scratch on every call). Faster evaluation
// orders -- precomputed gate drives, hoisted bisection invariants, lazily
// computed trip points -- must reproduce these doubles exactly: the Fig. 2
// distributions and the iso-ADM calibration are only reproducible if the
// Monte Carlo is. Doubles are compared with EXPECT_EQ, written as hex floats
// so no digit is lost.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cell/sram6t.hpp"
#include "timing/adm.hpp"
#include "timing/bl_compute.hpp"

namespace bpim::timing {
namespace {

using circuit::Corner;
using circuit::OperatingPoint;

OperatingPoint nominal() { return OperatingPoint{Volt(0.9), 25.0, Corner::NN}; }

constexpr double kBoostDelays[64] = {
    0x1.11104509a535ep-31, 0x1.051ea41f2e668p-31, 0x1.532349c8723f2p-31,
    0x1.197ba67c72498p-31, 0x1.d24600c2e1f37p-32, 0x1.68bede18e847p-31,
    0x1.20b86d8347feep-31, 0x1.bb5cb3c0a9539p-32, 0x1.de379e21a67dcp-32,
    0x1.2814ac92f80ecp-31, 0x1.36fbbe2c15188p-31, 0x1.eddb331463613p-32,
    0x1.b48a52da08bd3p-32, 0x1.27f439bbc9da6p-31, 0x1.06e088237ac6ap-31,
    0x1.37ec0cf4ea914p-31, 0x1.c6cfda0c31737p-32, 0x1.feed002f28d35p-32,
    0x1.b08b38735477p-32, 0x1.21fd981000ddep-31, 0x1.decd8677358ap-32,
    0x1.e530e6dbb61afp-32, 0x1.ed03295672dc6p-32, 0x1.e13261cda7d39p-32,
    0x1.305e2f21134aap-31, 0x1.3e92bf53b5fd4p-31, 0x1.1bca27dcf45cep-31,
    0x1.6b47a7742ce7cp-31, 0x1.4c4a559474902p-31, 0x1.b5f217e474015p-32,
    0x1.3b5b2605987fp-31, 0x1.f4b8caed5a8b8p-32, 0x1.b31993b3f10ep-32,
    0x1.c6363a073005ep-32, 0x1.3040602f5a636p-31, 0x1.e3a313d2a243cp-32,
    0x1.9fac1c97bd71p-32, 0x1.cab95646a68f9p-32, 0x1.c4a8bb16b2b38p-32,
    0x1.0844ee94c0498p-31, 0x1.e99763538b098p-32, 0x1.f26db742b37b1p-32,
    0x1.e36515b437216p-32, 0x1.1932f0b6df834p-31, 0x1.c6f785dbef784p-32,
    0x1.b738b6830d153p-32, 0x1.0e0dbda49ca31p-31, 0x1.c24779836b404p-32,
    0x1.0088f7e6fd4b9p-31, 0x1.911b733e49733p-32, 0x1.9169a564ef819p-32,
    0x1.06127703172fap-31, 0x1.fc1865c248411p-32, 0x1.1dc9eade6ec8p-31,
    0x1.1bd24eed05a26p-31, 0x1.0f673364faafp-31, 0x1.c6727c4b8ec85p-32,
    0x1.4b0940a674026p-31, 0x1.ec3c7c6bf8fe5p-32, 0x1.e4a54d92c822fp-32,
    0x1.b435ea183eafbp-32, 0x1.337b5454359ccp-31, 0x1.1f9e11e930e1p-31,
    0x1.1cc6ec75ac8dcp-31,
};

constexpr double kWludDelays[64] = {
    0x1.4479726929677p-29, 0x1.386c48f3b7ce3p-29, 0x1.7f9c33d54d4b5p-30,
    0x1.3b35e93c436cbp-29, 0x1.5732bfbdaf234p-30, 0x1.2b6b70d373f45p-30,
    0x1.8e728163b09cbp-30, 0x1.f6b3aefe728b5p-30, 0x1.d50ea563d4e3cp-30,
    0x1.0ad9cb96883eep-29, 0x1.dc2c095b92f87p-30, 0x1.410c0e86bfe1fp-29,
    0x1.7afe117ee3519p-30, 0x1.0aaea1217e3b5p-29, 0x1.3098658e60a13p-29,
    0x1.1d1392cb143e7p-29, 0x1.ce6a7db313d1ep-30, 0x1.21eccf8f4d00dp-29,
    0x1.6caaaf9deace4p-29, 0x1.2685b7dbd375bp-29, 0x1.ebba11822ed23p-30,
    0x1.f0bdb1e6fb18p-30, 0x1.1b0a6006bfffep-29, 0x1.8f089fa77c1adp-30,
    0x1.f1f804e90a455p-30, 0x1.ccfb8f64b7fa9p-30, 0x1.5018e24ea1668p-29,
    0x1.f490485f8ed77p-30, 0x1.56a9daaf17f1p-29, 0x1.0468d5be365abp-29,
    0x1.0f167f42502f4p-29, 0x1.3ff4f504d78f5p-29, 0x1.0a8a7039998a4p-29,
    0x1.7f4d510638792p-30, 0x1.29ab6bd7a3576p-29, 0x1.018d298bb4aa9p-29,
    0x1.4f0dfc6ea07c1p-29, 0x1.2c579c18b7d38p-29, 0x1.b7500a87033cp-30,
    0x1.c341f31abc9b9p-30, 0x1.4557f52b5d74p-29, 0x1.711f87853ce02p-30,
    0x1.3ab28a00caacep-30, 0x1.f224e741ff8afp-30, 0x1.d6dfa443d090ep-30,
    0x1.059c97d470824p-29, 0x1.542cba083ed7fp-29, 0x1.d0e67dc74efbp-30,
    0x1.c4f9846298a5ep-30, 0x1.eebb70e19b5a6p-30, 0x1.1a6cfa02a8d62p-29,
    0x1.798c33ab3d739p-29, 0x1.e2bedea9e5104p-30, 0x1.e116f6966e81p-30,
    0x1.15fec7de395dp-29, 0x1.153518f48d1bap-29, 0x1.3a3bbe5f362b5p-29,
    0x1.3a12e8ac5f822p-29, 0x1.1386ef2b28e18p-29, 0x1.f7b3b137fda05p-30,
    0x1.0cdb3837f48d6p-29, 0x1.75588b8606bbdp-30, 0x1.0134effbd3a79p-29,
    0x1.10b40d4afac93p-29,
};

void expect_samples(const SampleSet& got, const double (&want)[64]) {
  ASSERT_EQ(got.count(), 64u);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(got.samples()[i], want[i]) << "trial " << i;
}

TEST(McGolden, BoostDelayDistribution) {
  expect_samples(bl_delay_distribution(BlScheme::ShortWlBoost, BlComputeConfig{}, nominal(), 64,
                                       0x601D),
                 kBoostDelays);
}

TEST(McGolden, WludDelayDistribution) {
  expect_samples(
      bl_delay_distribution(BlScheme::Wlud, BlComputeConfig{}, nominal(), 64, 0x602D),
      kWludDelays);
}

struct NominalPin {
  OperatingPoint op;
  double boost_s;
  double wlud_s;
};

TEST(McGolden, NominalDelayAtCornersAndLowSupply) {
  const NominalPin pins[] = {
      {{Volt(0.9), 25.0, Corner::SS}, 0x1.93dbe8a290fe6p-31, 0x1.a9571d06fc8d7p-29},
      {{Volt(0.9), 25.0, Corner::SF}, 0x1.2a22eddf13d18p-31, 0x1.a9571d06fc8d7p-29},
      {{Volt(0.9), 25.0, Corner::NN}, 0x1.0444fd33da5dep-31, 0x1.f654cb1b03f62p-30},
      {{Volt(0.9), 25.0, Corner::FS}, 0x1.c2f7eb6197121p-32, 0x1.515259980c171p-30},
      {{Volt(0.9), 25.0, Corner::FF}, 0x1.79419db471a38p-32, 0x1.515259980c171p-30},
      {{Volt(0.8), 25.0, Corner::NN}, 0x1.7a333a69d29ccp-31, 0x1.d20d02cbb4dcdp-30},
  };
  for (const auto& p : pins) {
    SCOPED_TRACE(circuit::to_string(p.op.corner));
    EXPECT_EQ(BlComputeModel(BlScheme::ShortWlBoost, BlComputeConfig{}, p.op).nominal_delay().si(),
              p.boost_s);
    EXPECT_EQ(BlComputeModel(BlScheme::Wlud, BlComputeConfig{}, p.op).nominal_delay().si(),
              p.wlud_s);
  }
}

TEST(McGolden, WludDisturbCounts) {
  const BlComputeConfig cfg;
  EXPECT_EQ(wlud_disturb_rate(cfg, nominal(), Volt(0.55), 100000, 0xAD55).failures, 1u);
  EXPECT_EQ(wlud_disturb_rate(cfg, nominal(), Volt(0.60), 20000, 0xAD60).failures, 257u);
  EXPECT_EQ(wlud_disturb_rate(cfg, nominal(), Volt(0.70), 20000, 0xAD70).failures, 18125u);
}

TEST(McGolden, ShortWlDisturbCounts) {
  // Default 140 ps pulse, a 200 ps pulse in the transition, and a 3 ns
  // pulse that is quasi-DC full-swing stress.
  BlComputeConfig p200;
  p200.wl_pulse = Second(200e-12);
  BlComputeConfig p3n;
  p3n.wl_pulse = Second(3e-9);
  EXPECT_EQ(shortwl_disturb_rate(BlComputeConfig{}, nominal(), 20000, 0x5140).failures, 0u);
  EXPECT_EQ(shortwl_disturb_rate(p200, nominal(), 10000, 0x5200).failures, 363u);
  EXPECT_EQ(shortwl_disturb_rate(p3n, nominal(), 5000, 0x5300).failures, 5000u);
}

/// Cells under test: {operating point} x {no mismatch, a hand-set skew, a
/// Pelgrom draw}.
std::vector<cell::Sram6tCell> golden_cells() {
  cell::CellMismatch skew;
  skew.d_access = Volt(-0.06);
  skew.d_pulldown = Volt(0.03);
  skew.d_pullup = Volt(0.05);
  skew.d_trip = Volt(-0.02);
  Rng rng(0xCE11);
  const cell::CellMismatch drawn = cell::CellMismatch::sample(rng, cell::CellGeometry{});
  std::vector<cell::Sram6tCell> cells;
  for (const OperatingPoint& op : {nominal(), OperatingPoint{Volt(0.8), 85.0, Corner::SF}})
    for (const cell::CellMismatch& mm : {cell::CellMismatch{}, skew, drawn})
      cells.emplace_back(cell::CellGeometry{}, op, mm);
  return cells;
}

constexpr double kTripHigh[6] = {
    0x1.9e4c2f07057e6p-2,
    0x1.860f5a2ae6806p-2,
    0x1.7a23d5a4a06ecp-2,
    0x1.968038c75f03ep-2,
    0x1.7dd4066313168p-2,
    0x1.723f41bedfc3ep-2,
};

struct CellPin {
  double v_wl, v_bl;
  double read_a, sag_v, bump_v;
};

/// Per cell: WL at 0.55 V and 0.9 V against a low, middle and high BL.
constexpr CellPin kCellPins[6][6] = {
    {
        {0.55, 0.04, 0x1.47d3c3b9f517fp-19, 0x1.a52c325866384p-1, 0x1.7eaffc534a3d8p-7},
        {0.55, 0.30, 0x1.5038f2e1595a1p-18, 0x1.ccc4abdff4334p-1, 0x1.61a7fade4999cp-6},
        {0.55, 0.90, 0x1.52966dd71d131p-18, 0x1.ccccccccccccdp-1, 0x1.61a7fade36667p-6},
        {0.90, 0.04, 0x1.ca61b064d62dbp-19, 0x1.d6e462787bffep-4, 0x1.0a9c8d533999bp-6},
        {0.90, 0.30, 0x1.1833545a1de3dp-16, 0x1.54a9d7f2f9p-1, 0x1.9fd1ef2ae599ap-4},
        {0.90, 0.90, 0x1.28fef9890955cp-16, 0x1.ccccccccccccdp-1, 0x1.d271eeaaf7332p-4},
    },
    {
        {0.55, 0.04, 0x1.6e7ef7e48900bp-19, 0x1.6e7cbe7c889ebp-1, 0x1.b4065df368f5cp-7},
        {0.55, 0.30, 0x1.f1b8ad603d47dp-18, 0x1.cc8bf846fe332p-1, 0x1.1d7e50423b335p-5},
        {0.55, 0.90, 0x1.f51f9f5e3c119p-18, 0x1.ccccccccccccdp-1, 0x1.1d7e50423b332p-5},
        {0.90, 0.04, 0x1.d0a018382d39dp-19, 0x1.990542b23e3d8p-4, 0x1.13e39269a7adfp-6},
        {0.90, 0.30, 0x1.20e36485477ffp-16, 0x1.8cf7e8304accbp-2, 0x1.cac6fa4134002p-4},
        {0.90, 0.90, 0x1.3799226cccacap-16, 0x1.ccccccccccccdp-1, 0x1.19c62a3251332p-3},
    },
    {
        {0.55, 0.04, 0x1.507b3ba88cefp-19, 0x1.9e7cabf2962e2p-1, 0x1.859f7242170a4p-7},
        {0.55, 0.30, 0x1.6b76af6c43bedp-18, 0x1.ccc16d2ee3002p-1, 0x1.7dbad1a8e3334p-6},
        {0.55, 0.90, 0x1.6e9d8249db37bp-18, 0x1.ccccccccccccdp-1, 0x1.7dbad1a8f6666p-6},
        {0.90, 0.04, 0x1.cdb0e29a08f54p-19, 0x1.bfa5f15f3970ap-4, 0x1.0a68f16813331p-6},
        {0.90, 0.30, 0x1.1d9c27f459e66p-16, 0x1.32eb87c5b5cccp-1, 0x1.a22e8b7e24p-4},
        {0.90, 0.90, 0x1.3152db1badf5cp-16, 0x1.ccccccccccccdp-1, 0x1.da944eda62668p-4},
    },
    {
        {0.55, 0.04, 0x1.db7d3dea3ec3bp-20, 0x1.72b67b891fb85p-1, 0x1.9a9f8b9991eb6p-7},
        {0.55, 0.30, 0x1.fe9f0bfac7f97p-19, 0x1.997b90579c19ap-1, 0x1.9a813605d6666p-6},
        {0.55, 0.90, 0x1.fee98af1b5c7ep-19, 0x1.ccccccccccb34p-1, 0x1.9a813605d6668p-6},
        {0.90, 0.04, 0x1.42b0eaab686c2p-19, 0x1.06ae729de829p-3, 0x1.15f89064b47adp-6},
        {0.90, 0.30, 0x1.740ef5255d046p-17, 0x1.31f7f8c2cf19ap-1, 0x1.c4f2ff591f33p-4},
        {0.90, 0.90, 0x1.81b29e11970d6p-17, 0x1.ccccccccccb34p-1, 0x1.0453a9c32dffep-3},
    },
    {
        {0.55, 0.04, 0x1.0548a4229c4b9p-19, 0x1.4553ae8a37149p-1, 0x1.cea4e25868f5ap-7},
        {0.55, 0.30, 0x1.64d7272d7d99p-18, 0x1.98f35525ec19ap-1, 0x1.4383ba4ebe665p-5},
        {0.55, 0.90, 0x1.64d7272d7d99p-18, 0x1.ccccccccccb34p-1, 0x1.4383ba4ebe666p-5},
        {0.90, 0.04, 0x1.45a23839af035p-19, 0x1.c2d9511722e18p-4, 0x1.202074683c291p-6},
        {0.90, 0.30, 0x1.73ed33b6cec21p-17, 0x1.9f86560862334p-2, 0x1.f6d89d84ba664p-4},
        {0.90, 0.90, 0x1.890b012dec15dp-17, 0x1.ccccccccccb34p-1, 0x1.41f58d35dc666p-3},
    },
    {
        {0.55, 0.04, 0x1.e6e096f252847p-20, 0x1.6cd9055f2d291p-1, 0x1.a0308824bae12p-7},
        {0.55, 0.30, 0x1.125d07070c0e4p-18, 0x1.9971db730319ap-1, 0x1.b76bc7aa56668p-6},
        {0.55, 0.90, 0x1.12b79f392c653p-18, 0x1.ccccccccccb34p-1, 0x1.b76bc7aa43333p-6},
        {0.90, 0.04, 0x1.45543134d1d79p-19, 0x1.f1491fffe6146p-4, 0x1.156e7617d851fp-6},
        {0.90, 0.30, 0x1.7d8431ffc237dp-17, 0x1.1ed10513bb19ap-1, 0x1.c5cdf44e94p-4},
        {0.90, 0.90, 0x1.8e06916131822p-17, 0x1.ccccccccccb34p-1, 0x1.07f5e4233d332p-3},
    },
};

TEST(McGolden, CellPrimitives) {
  const auto cells = golden_cells();
  ASSERT_EQ(cells.size(), 6u);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    SCOPED_TRACE(c);
    EXPECT_EQ(cells[c].trip_high().si(), kTripHigh[c]);
    for (const CellPin& p : kCellPins[c]) {
      EXPECT_EQ(cells[c].read_current(Volt(p.v_wl), Volt(p.v_bl)).si(), p.read_a);
      EXPECT_EQ(cells[c].sag_voltage(Volt(p.v_wl), Volt(p.v_bl)).si(), p.sag_v);
      EXPECT_EQ(cells[c].bump_voltage(Volt(p.v_wl), Volt(p.v_bl)).si(), p.bump_v);
    }
  }
}

}  // namespace
}  // namespace bpim::timing
