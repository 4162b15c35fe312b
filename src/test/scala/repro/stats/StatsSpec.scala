package repro.stats

import repro.SparkSpec

class StatsSpec extends SparkSpec {

  test("Gaussian cdf at known points") {
    assert(math.abs(Gaussian.cdf(0.0) - 0.5) < 1e-6)
    assert(math.abs(Gaussian.cdf(1.96) - 0.975) < 1e-3)
    assert(math.abs(Gaussian.cdf(-1.96) - 0.025) < 1e-3)
    assert(Gaussian.cdf(8.0) > 0.999999)
  }

  test("chi-square cdf at known points") {
    // chi2(1): P(X <= 3.841) = 0.95
    assert(math.abs(ChiSquare.cdf(3.841, 1) - 0.95) < 1e-3)
    // chi2(12): P(X <= 21.026) = 0.95  (k-1 = 12 is the paper's dof)
    assert(math.abs(ChiSquare.cdf(21.026, 12) - 0.95) < 1e-3)
    assert(ChiSquare.cdf(0.0, 5) == 0.0)
  }

  test("regularized gamma boundary behaviour") {
    assert(Gamma.regularizedLowerP(2.5, 0.0) == 0.0)
    assert(Gamma.regularizedLowerP(2.5, 1e6) > 0.999999)
    // P(a, a) is near 0.5 for moderate a
    assert(math.abs(Gamma.regularizedLowerP(10, 10) - 0.5) < 0.1)
  }

  test("Friedman: identical methods give equal ranks and p ~ 1") {
    val scores = Seq.fill(12)(Map("a" -> 1.0, "b" -> 1.0, "c" -> 1.0))
    val r = Friedman.test(scores)
    assert(r.avgRanks.values.forall(v => math.abs(v - 2.0) < 1e-9))
    assert(r.pValue > 0.99)
  }

  test("Friedman: a dominant method ranks first with small p") {
    val rng = new scala.util.Random(1)
    val scores = Seq.fill(20)(Map(
      "good" -> (2.0 + rng.nextDouble() * 0.1),
      "mid"  -> (1.5 + rng.nextDouble() * 0.1),
      "bad"  -> (1.0 + rng.nextDouble() * 0.1)))
    val r = Friedman.test(scores)
    assert(r.ordered.head._1 == "good")
    assert(r.ordered.last._1 == "bad")
    assert(math.abs(r.avgRanks("good") - 3.0) < 1e-9)
    assert(r.pValue < 0.001)
  }

  test("Friedman chi-square matches the hand formula on a small example") {
    // 3 methods, 4 datasets, no ties
    val scores = Seq(
      Map("a" -> 3.0, "b" -> 2.0, "c" -> 1.0),
      Map("a" -> 3.0, "b" -> 1.0, "c" -> 2.0),
      Map("a" -> 2.0, "b" -> 3.0, "c" -> 1.0),
      Map("a" -> 3.0, "b" -> 2.0, "c" -> 1.0))
    val r = Friedman.test(scores)
    // ranks: a: 3,3,2,3 = 2.75; b: 2,1,3,2 = 2.0; c: 1,2,1,1 = 1.25
    assert(math.abs(r.avgRanks("a") - 2.75) < 1e-9)
    assert(math.abs(r.avgRanks("b") - 2.0) < 1e-9)
    assert(math.abs(r.avgRanks("c") - 1.25) < 1e-9)
    val expected = 12.0 * 4 / (3 * 4) * ((2.75 * 2.75 + 4.0 + 1.25 * 1.25) - 3 * 16 / 4.0)
    assert(math.abs(r.chiSq - expected) < 1e-9)
  }

  test("Friedman handles ties with mean ranks") {
    val scores = Seq(Map("a" -> 1.0, "b" -> 1.0, "c" -> 2.0))
    val r = Friedman.test(scores)
    assert(math.abs(r.avgRanks("a") - 1.5) < 1e-9)
    assert(math.abs(r.avgRanks("b") - 1.5) < 1e-9)
    assert(math.abs(r.avgRanks("c") - 3.0) < 1e-9)
  }

  test("Nemenyi CD for the paper's setting (k=13, N=33)") {
    val cd = Nemenyi.criticalDifference(13, 33)
    // CD = 3.313 * sqrt(13*14/(6*33)) = 3.175...
    assert(math.abs(cd - 3.313 * math.sqrt(13.0 * 14 / (6 * 33))) < 1e-9)
    assert(cd > 3.0 && cd < 3.4)
  }

  test("Nemenyi cliques group methods within CD") {
    val ranks = Seq("a" -> 5.0, "b" -> 4.8, "c" -> 1.0)
    val cl = Nemenyi.cliques(ranks, cd = 0.5)
    assert(cl.exists(c => c.contains("a") && c.contains("b")))
    assert(!cl.exists(c => c.contains("a") && c.contains("c")))
  }

  test("Mann-Whitney: identical samples give p ~ 1") {
    val a = Seq(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
    val r = MannWhitney.test(a, a)
    assert(r.pTwoSided > 0.9, s"p=${r.pTwoSided}")
  }

  test("Mann-Whitney: the continuity correction stops at mu, so identical samples give p == 1") {
    // Equal CR lists with ties, as Table 9 compares for codecs that ignore dimensions.
    val a = Seq(1.07, 1.21, 1.21, 1.35, 2.5, 3.0, 3.0)
    val r = MannWhitney.test(a, a)
    assert(r.u == a.size * a.size / 2.0)
    assert(r.z == 0.0 && r.pTwoSided == 1.0, s"z=${r.z} p=${r.pTwoSided}")
    assert(MannWhitney.test(Seq(1.0, 2.0), Seq(1.5, 1.5)).pTwoSided == 1.0)
  }

  test("Mann-Whitney: disjoint samples give small p") {
    val a = (1 to 15).map(_.toDouble)
    val b = (100 to 114).map(_.toDouble)
    val r = MannWhitney.test(a, b)
    assert(r.pTwoSided < 0.001, s"p=${r.pTwoSided}")
    assert(r.u == 0.0)
  }

  test("Mann-Whitney U statistic on a textbook example") {
    // a = {1,2,4}, b = {3,5,6}: ranks a = 1,2,4 (R1=7), U1 = 7-6 = 1
    val r = MannWhitney.test(Seq(1.0, 2.0, 4.0), Seq(3.0, 5.0, 6.0))
    assert(r.u == 1.0)
  }

  test("Mann-Whitney symmetric in its arguments") {
    val a = Seq(1.0, 3.0, 5.0, 7.0)
    val b = Seq(2.0, 4.0, 6.0, 8.0)
    val r1 = MannWhitney.test(a, b)
    val r2 = MannWhitney.test(b, a)
    assert(math.abs(r1.pTwoSided - r2.pTwoSided) < 1e-9)
    assert(r1.u == r2.u)
  }
}
