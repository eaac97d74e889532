// Alpha-power/EKV MOSFET model: monotonicity, regions, corners, mismatch.

#include <gtest/gtest.h>

#include "circuit/mosfet.hpp"

namespace bpim::circuit {
namespace {

using namespace bpim::literals;

OperatingPoint nominal() { return OperatingPoint{0.9_V, 25.0, Corner::NN}; }

TEST(Mosfet, RejectsNonPositiveWidth) {
  EXPECT_THROW(Mosfet(DeviceKind::Nmos, VtFlavor::Regular, 0.0, nominal()),
               std::invalid_argument);
}

TEST(Mosfet, CurrentIncreasesWithVgs) {
  const Mosfet m(DeviceKind::Nmos, VtFlavor::Regular, 0.2, nominal());
  double prev = 0.0;
  for (double vgs = 0.2; vgs <= 1.1; vgs += 0.05) {
    const double i = m.current(Volt(vgs), 0.9_V).si();
    EXPECT_GT(i, prev);
    prev = i;
  }
}

TEST(Mosfet, CurrentIncreasesWithVdsInTriode) {
  const Mosfet m(DeviceKind::Nmos, VtFlavor::Regular, 0.2, nominal());
  const double sat = m.current(0.9_V, 0.9_V).si();
  const double lin = m.current(0.9_V, 0.05_V).si();
  EXPECT_LT(lin, sat);
  EXPECT_GT(lin, 0.0);
  // Beyond Vdsat the current saturates.
  EXPECT_DOUBLE_EQ(m.current(0.9_V, 0.8_V).si(), m.current(0.9_V, 0.9_V).si());
}

TEST(Mosfet, ZeroOrNegativeVdsGivesZero) {
  const Mosfet m(DeviceKind::Nmos, VtFlavor::Regular, 0.2, nominal());
  EXPECT_DOUBLE_EQ(m.current(0.9_V, 0.0_V).si(), 0.0);
  EXPECT_DOUBLE_EQ(m.current(0.9_V, Volt(-0.1)).si(), 0.0);
}

TEST(Mosfet, SubthresholdIsExponentialNotZero) {
  const Mosfet m(DeviceKind::Nmos, VtFlavor::Regular, 0.2, nominal());
  const double i1 = m.current(Volt(m.vth().si() - 0.10), 0.9_V).si();
  const double i2 = m.current(Volt(m.vth().si() - 0.20), 0.9_V).si();
  EXPECT_GT(i1, 0.0);
  EXPECT_GT(i2, 0.0);
  EXPECT_GT(i1 / i2, 5.0);  // ~100 mV/decade-ish slope
  EXPECT_LT(i1 / i2, 100.0);
}

TEST(Mosfet, CurrentScalesLinearlyWithWidth) {
  const Mosfet w1(DeviceKind::Nmos, VtFlavor::Regular, 0.2, nominal());
  const Mosfet w2(DeviceKind::Nmos, VtFlavor::Regular, 0.4, nominal());
  EXPECT_NEAR(w2.current(0.9_V, 0.9_V).si() / w1.current(0.9_V, 0.9_V).si(), 2.0, 1e-9);
}

TEST(Mosfet, LvtConductsMoreAtSameBias) {
  const Mosfet rvt(DeviceKind::Nmos, VtFlavor::Regular, 0.2, nominal());
  const Mosfet lvt(DeviceKind::Nmos, VtFlavor::LowVt, 0.2, nominal());
  EXPECT_LT(lvt.vth().si(), rvt.vth().si());
  EXPECT_GT(lvt.current(0.5_V, 0.9_V).si(), rvt.current(0.5_V, 0.9_V).si());
}

TEST(Mosfet, PmosWeakerPerMicron) {
  const Mosfet n(DeviceKind::Nmos, VtFlavor::Regular, 0.2, nominal());
  const Mosfet p(DeviceKind::Pmos, VtFlavor::Regular, 0.2, nominal());
  EXPECT_GT(n.current(0.9_V, 0.9_V).si(), p.current(0.9_V, 0.9_V).si());
}

TEST(Mosfet, CornerOrderingSlowToFast) {
  auto idsat = [](Corner c) {
    OperatingPoint op{Volt(0.9), 25.0, c};
    return Mosfet(DeviceKind::Nmos, VtFlavor::Regular, 0.2, op).current(Volt(0.9), Volt(0.9)).si();
  };
  EXPECT_LT(idsat(Corner::SS), idsat(Corner::NN));
  EXPECT_LT(idsat(Corner::NN), idsat(Corner::FF));
  // NMOS: SF is slow, FS is fast.
  EXPECT_LT(idsat(Corner::SF), idsat(Corner::NN));
  EXPECT_GT(idsat(Corner::FS), idsat(Corner::NN));
}

TEST(Mosfet, PmosCornerAsymmetry) {
  auto idsat = [](Corner c) {
    OperatingPoint op{Volt(0.9), 25.0, c};
    return Mosfet(DeviceKind::Pmos, VtFlavor::Regular, 0.2, op).current(Volt(0.9), Volt(0.9)).si();
  };
  EXPECT_GT(idsat(Corner::SF), idsat(Corner::NN));  // fast PMOS at SF
  EXPECT_LT(idsat(Corner::FS), idsat(Corner::NN));
}

TEST(Mosfet, HotterIsSlowerAtHighOverdrive) {
  OperatingPoint hot{0.9_V, 125.0, Corner::NN};
  const Mosfet cold(DeviceKind::Nmos, VtFlavor::Regular, 0.2, nominal());
  const Mosfet warm(DeviceKind::Nmos, VtFlavor::Regular, 0.2, hot);
  // At full overdrive, mobility loss dominates the Vth drop.
  EXPECT_LT(warm.current(0.9_V, 0.9_V).si(), cold.current(0.9_V, 0.9_V).si());
  // Near threshold the lower Vth wins (temperature inversion).
  EXPECT_GT(warm.current(0.45_V, 0.9_V).si(), cold.current(0.45_V, 0.9_V).si());
}

TEST(Mosfet, MismatchDeltaShiftsThreshold) {
  const Mosfet fast(DeviceKind::Nmos, VtFlavor::Regular, 0.2, nominal(), default_process(),
                    Volt(-0.05));
  const Mosfet slow(DeviceKind::Nmos, VtFlavor::Regular, 0.2, nominal(), default_process(),
                    Volt(+0.05));
  EXPECT_NEAR(slow.vth().si() - fast.vth().si(), 0.10, 1e-12);
  EXPECT_GT(fast.current(0.6_V, 0.9_V).si(), slow.current(0.6_V, 0.9_V).si());
}

TEST(Mosfet, PelgromSigmaShrinksWithArea) {
  const double s_small = Mosfet::mismatch_sigma(0.1).si();
  const double s_large = Mosfet::mismatch_sigma(0.4).si();
  EXPECT_NEAR(s_small / s_large, 2.0, 1e-9);  // sqrt(4x area)
  EXPECT_GT(s_small, 0.01);                   // tens of mV for minimum devices
  EXPECT_LT(s_small, 0.06);
}

TEST(Mosfet, RealisticSaturationCurrentDensity) {
  // ~200-600 uA/um at full overdrive is the right 28 nm ballpark.
  const Mosfet m(DeviceKind::Nmos, VtFlavor::Regular, 1.0, nominal());
  const double i = m.current(0.9_V, 0.9_V).si();
  EXPECT_GT(i, 100e-6);
  EXPECT_LT(i, 800e-6);
}

TEST(Mosfet, DriveThenCurrentEqualsCurrentBitwise) {
  // The gate-only Drive plus the Vds step must reproduce the one-call current
  // exactly, in every region of both steps. x = (Vgs - Vth) / s is the EKV
  // argument: below -40 the device is cut off, above 40 the overdrive is
  // used as is, in between the log1p(exp) smoothing applies.
  const ProcessParams& p = default_process();
  const double vds_grid[] = {-0.2, 0.0, 1e-4, 0.005, 0.02, 0.05, 0.1, 0.2, 0.35,
                             0.5,  0.7, 0.9,  1.2,   1.5,  1.5001, 1.8, 3.0};
  int cut_off = 0, smoothed = 0, linear = 0, triode = 0, saturated = 0, clamped = 0;
  for (const DeviceKind kind : {DeviceKind::Nmos, DeviceKind::Pmos}) {
    for (const Volt d_vth : {Volt(0.0), Volt(-0.07), Volt(0.09)}) {
      const OperatingPoint op{0.9_V, 85.0, Corner::SF};
      const Mosfet m(kind, VtFlavor::Regular, 0.14, op, p, d_vth);
      const double s = p.subvt_n_factor * thermal_voltage(op.temp_c).si();
      for (int k = 0; k <= 480; ++k) {
        const double vgs = -2.2 + 0.01 * k;  // -2.2 V .. 2.6 V
        const double x = (vgs - m.vth().si()) / s;
        (x < -40.0 ? cut_off : x > 40.0 ? linear : smoothed) += 1;
        const Mosfet::Drive d = m.drive(Volt(vgs));
        for (const double vds : vds_grid) {
          if (vds > 0.0 && vds <= 1.5 && d.isat > 0.0) (vds < d.vdsat ? triode : saturated) += 1;
          if (vds > 1.5) ++clamped;
          EXPECT_EQ(Mosfet::current(d, Volt(vds)).si(), m.current(Volt(vgs), Volt(vds)).si())
              << "vgs " << vgs << " vds " << vds;
        }
      }
    }
  }
  EXPECT_GT(cut_off, 0);
  EXPECT_GT(smoothed, 0);
  EXPECT_GT(linear, 0);
  EXPECT_GT(triode, 0);
  EXPECT_GT(saturated, 0);
  EXPECT_GT(clamped, 0);
}

TEST(Mosfet, CutOffDriveGivesZeroCurrentAtAnyVds) {
  const Mosfet m(DeviceKind::Nmos, VtFlavor::Regular, 0.2, nominal());
  const Mosfet::Drive off = m.drive(Volt(-2.0));
  EXPECT_EQ(off.isat, 0.0);
  for (const double vds : {0.0, 0.01, 0.9, 2.0})
    EXPECT_EQ(Mosfet::current(off, Volt(vds)).si(), 0.0);
}

}  // namespace
}  // namespace bpim::circuit
