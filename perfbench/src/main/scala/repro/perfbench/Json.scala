package repro.perfbench

/** Minimal JSON rendering for the result line and the trace file. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }

  /** Numbers with all their digits; non-finite values have no JSON form. */
  def num(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"non-finite metric value: $v")
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
