package repro.core

/** The frame of parts already coded, through [[Frame.write]]: for the
  * oracles and the tests that build or edit a frame part by part.
  */
object FrameOf {
  def apply(parts: Seq[Array[Byte]], trailer: Int = 0): Array[Byte] =
    Frame.write(parts.toIndexedSeq, 1, trailer)(_.length) { (p, out, off) =>
      System.arraycopy(p, 0, out, off, p.length)
      p.length
    }
}
