package repro.perfbench

/** Metric-safe codec names: metric names allow only `[A-Za-z0-9_.-]`, while
  * the paper's column names carry `+` and `:` (`shf+LZ4`, `nv:btcomp`).
  * Names are lower-cased and every run of other characters becomes `_`, so
  * `shf+LZ4` -> `shf_lz4`, `nv:btcomp` -> `nv_btcomp`, `ndzip-C` -> `ndzip-c`.
  */
object Names {
  private val Unsafe = "[^a-z0-9_.-]+".r

  def metricSafe(codecName: String): String = Unsafe.replaceAllIn(codecName.toLowerCase, "_")
}
