package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {
  test("median") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5)
  }

  test("means") {
    assert(math.abs(Stats.geomean(Seq(1.0, 4.0)) - 2.0) < 1e-12)
    assert(math.abs(Stats.hmean(Seq(1.0, 3.0)) - 1.5) < 1e-12)
  }
}
