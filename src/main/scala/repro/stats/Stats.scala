package repro.stats

/** Statistical toolkit used by the paper: the Friedman test with Iman-
  * Davenport correction and the Nemenyi post-hoc critical difference for
  * ranking the k=13 methods over N=33 datasets (§5.4), and the Mann-Whitney
  * U test for the dimensionality study (§6.1.5).
  */
object Friedman {

  final case class Result(avgRanks: Map[String, Double], chiSq: Double,
                          imanDavenportF: Double, pValue: Double, k: Int, n: Int) {
    /** Methods ordered best (highest average rank) first. */
    def ordered: Seq[(String, Double)] = avgRanks.toSeq.sortBy(-_._2)
  }

  /** `scores(dataset)(method)` — higher is better (compression ratios).
    * Missing cells are allowed per-dataset only if every method has a value;
    * datasets with missing methods should be filtered by the caller.
    */
  def test(scores: Seq[Map[String, Double]]): Result = {
    require(scores.nonEmpty, "no datasets")
    val methods = scores.head.keys.toSeq.sorted
    val k = methods.size
    val n = scores.size
    require(scores.forall(_.keySet == methods.toSet), "ragged score matrix")

    // rank within each dataset: best score -> rank k, ties share the mean rank
    val rankSums = scala.collection.mutable.Map(methods.map(_ -> 0.0): _*)
    scores.foreach { row =>
      val sorted = methods.sortBy(row) // ascending score
      sorted.zip(MidRanks(sorted.map(row))).foreach { case (m, r) => rankSums(m) += r }
    }
    val avgRanks = rankSums.map { case (m, s) => m -> s / n }.toMap
    val sumSq    = avgRanks.values.map(r => r * r).sum
    val chiSq    = 12.0 * n / (k * (k + 1)) * (sumSq - k * (k + 1.0) * (k + 1.0) / 4.0)
    val fStat    = (n - 1) * chiSq / (n * (k - 1) - chiSq)
    val p        = 1.0 - ChiSquare.cdf(chiSq, k - 1)
    Result(avgRanks, chiSq, fStat, p, k, n)
  }
}

object Nemenyi {
  /** q_alpha for alpha = 0.05 (studentized range / sqrt(2)), k = 2..20.
    * Source: Demšar 2006, Table 5(a).
    */
  private val Q05 = Array(Double.NaN, Double.NaN,
    1.960, 2.343, 2.569, 2.728, 2.850, 2.949, 3.031, 3.102, 3.164,
    3.219, 3.268, 3.313, 3.354, 3.391, 3.426, 3.458, 3.489, 3.517, 3.544)

  /** Critical difference of average ranks at alpha = 0.05. */
  def criticalDifference(k: Int, n: Int): Double = {
    require(k >= 2 && k <= 20, s"k out of table range: $k")
    Q05(k) * math.sqrt(k * (k + 1) / (6.0 * n))
  }

  /** Groups of methods whose rank differences are below the CD ("cliques"). */
  def cliques(avgRanks: Seq[(String, Double)], cd: Double): Seq[Seq[String]] = {
    val sorted = avgRanks.sortBy(-_._2)
    sorted.indices.map { i =>
      sorted.drop(i).takeWhile(p => sorted(i)._2 - p._2 <= cd).map(_._1)
    }.filter(_.size > 1).distinct
  }
}

object MannWhitney {
  final case class Result(u: Double, z: Double, pTwoSided: Double)

  /** Mann-Whitney U with normal approximation and tie correction — the
    * paper's test for "does flattening to 1-D change CRs?" (Table 9).
    */
  def test(a: Seq[Double], b: Seq[Double]): Result = {
    val n1 = a.size; val n2 = b.size
    require(n1 > 0 && n2 > 0, "empty sample")
    val all    = (a.map((_, 0)) ++ b.map((_, 1))).sortBy(_._1)
    val ranks  = MidRanks(all.map(_._1))
    val r1 = all.indices.collect { case x if all(x)._2 == 0 => ranks(x) }.sum
    val u1 = r1 - n1 * (n1 + 1) / 2.0
    val u  = math.min(u1, n1.toDouble * n2 - u1)
    // tie correction for the variance
    val tieGroups = all.map(_._1).groupBy(identity).values.map(_.size.toLong).filter(_ > 1)
    val tieSum    = tieGroups.map(t => t * t * t - t).sum.toDouble
    val nTot      = (n1 + n2).toLong
    val variance  = n1.toDouble * n2 / 12.0 *
      ((nTot + 1).toDouble - tieSum / (nTot * (nTot - 1)))
    val mu = n1.toDouble * n2 / 2.0
    // u <= mu; the half-unit continuity correction moves it towards mu, never past it
    val z  = if (variance <= 0) 0.0 else math.min(0.0, u - mu + 0.5) / math.sqrt(variance)
    val p  = 2.0 * Gaussian.cdf(-math.abs(z))
    Result(u, z, math.min(1.0, p))
  }
}

/** 1-based ranks of ascending `sorted` values; a run of equal values shares
  * the mean of the ranks it spans.
  */
private object MidRanks {
  def apply(sorted: Seq[Double]): Array[Double] = {
    val xs    = sorted.toArray
    val ranks = new Array[Double](xs.length)
    var i = 0
    while (i < xs.length) {
      var j = i
      while (j + 1 < xs.length && xs(j + 1) == xs(i)) j += 1
      val meanRank = (i + j + 2) / 2.0
      (i to j).foreach(x => ranks(x) = meanRank)
      i = j + 1
    }
    ranks
  }
}

/** Chi-square CDF via the regularized lower incomplete gamma function. */
object ChiSquare {
  def cdf(x: Double, dof: Int): Double =
    if (x <= 0) 0.0 else Gamma.regularizedLowerP(dof / 2.0, x / 2.0)
}

object Gaussian {
  /** Standard normal CDF via erfc (Abramowitz & Stegun 7.1.26-style). */
  def cdf(x: Double): Double = 0.5 * erfc(-x / math.sqrt(2.0))

  private def erfc(x: Double): Double = {
    val z = math.abs(x)
    val t = 1.0 / (1.0 + 0.5 * z)
    val ans = t * math.exp(-z * z - 1.26551223 +
      t * (1.00002368 + t * (0.37409196 + t * (0.09678418 +
      t * (-0.18628806 + t * (0.27886807 + t * (-1.13520398 +
      t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
    if (x >= 0) ans else 2.0 - ans
  }
}

/** Regularized incomplete gamma (Numerical Recipes series + continued
  * fraction), enough for chi-square p-values.
  */
object Gamma {
  def regularizedLowerP(a: Double, x: Double): Double = {
    require(a > 0 && x >= 0, s"bad args a=$a x=$x")
    if (x == 0) 0.0
    else if (x < a + 1.0) gser(a, x)
    else 1.0 - gcf(a, x)
  }

  private def lnGamma(x: Double): Double = {
    // Lanczos approximation
    val g = 7.0
    val c = Array(0.99999999999980993, 676.5203681218851, -1259.1392167224028,
      771.32342877765313, -176.61502916214059, 12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)
    if (x < 0.5) math.log(math.Pi / math.sin(math.Pi * x)) - lnGamma(1.0 - x)
    else {
      val xx = x - 1.0
      var acc = c(0)
      var i = 1
      while (i < 9) { acc += c(i) / (xx + i); i += 1 }
      val t = xx + g + 0.5
      0.5 * math.log(2 * math.Pi) + (xx + 0.5) * math.log(t) - t + math.log(acc)
    }
  }

  private def gser(a: Double, x: Double): Double = {
    var ap  = a
    var sum = 1.0 / a
    var del = sum
    var i = 0
    while (i < 500 && math.abs(del) >= math.abs(sum) * 1e-14) {
      ap += 1.0
      del *= x / ap
      sum += del
      i += 1
    }
    sum * math.exp(-x + a * math.log(x) - lnGamma(a))
  }

  private def gcf(a: Double, x: Double): Double = {
    val tiny = 1e-300
    var b = x + 1.0 - a
    var c = 1.0 / tiny
    var d = 1.0 / b
    var h = d
    var i = 1
    var delta = 10.0
    while (i < 500 && math.abs(delta - 1.0) >= 1e-14) {
      val an = -i * (i - a)
      b += 2.0
      d = an * d + b; if (math.abs(d) < tiny) d = tiny
      c = b + an / c; if (math.abs(c) < tiny) c = tiny
      d = 1.0 / d
      delta = d * c
      h *= delta
      i += 1
    }
    math.exp(-x + a * math.log(x) - lnGamma(a)) * h
  }
}
