package repro.perfbench

/** Median and means used to turn samples into reported metrics. */
object Stats {

  /** Median, the mean of the middle two of an even count. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted.toIndexedSeq
    (s((s.size - 1) / 2) + s(s.size / 2)) / 2
  }

  def geomean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty && xs.forall(_ > 0), s"geomean needs positive samples: $xs")
    math.exp(xs.map(math.log).sum / xs.size)
  }

  /** Harmonic mean, the paper's aggregate for compression ratios (§5.2). */
  def hmean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty && xs.forall(_ > 0), s"hmean needs positive samples: $xs")
    xs.size / xs.map(1.0 / _).sum
  }
}
