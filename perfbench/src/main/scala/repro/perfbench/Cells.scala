package repro.perfbench

import java.lang.management.ManagementFactory
import repro.core._
import scala.util.control.NonFatal

/** What one cell of a pass measured: one codec over one list of blocks,
  * each block compressed once and decompressed once. Times are host
  * wall-clock nanoseconds of the calls the benchmark made; a GPU codec's
  * call is its CPU execution, not the modelled kernel time.
  *
  * @param series       key throughput is aggregated under: the codec's
  *                     metric-safe name, plus `@<t>t` where a workload
  *                     sweeps thread counts
  * @param codec        metric-safe codec name
  * @param rawBytes     uncompressed bytes of the cell's blocks
  * @param payloadBytes codec payload bytes written (CR = raw / payload)
  * @param compNs       time of the compress calls
  * @param decompNs     time of the decompress calls
  * @param wallNs       time of the whole cell: the calls and the bit checks
  * @param allocBytes   bytes the calling thread allocated in the calls, when
  *                     counted (work a threaded codec hands to its pool is
  *                     not included)
  * @param error        why the cell failed, if it did
  */
final case class CellResult(series: String, codec: String, rawBytes: Long, payloadBytes: Long,
                            compNs: Long, decompNs: Long, wallNs: Long, allocBytes: Long,
                            error: Option[String]) {
  def ok: Boolean = error.isEmpty
  def cr: Double = rawBytes.toDouble / payloadBytes
}

object CellResult {
  /** The outcome of a check that times nothing, such as a probe's. */
  def check(name: String, error: Option[String]): CellResult =
    CellResult(name, name, 0, 0, 0, 0, 0, 0, error)

  def describe(e: Throwable): String = s"${e.getClass.getSimpleName}: ${e.getMessage}"
}

object Cells {
  private val threadBean =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  private def allocated(count: Boolean): Long =
    if (count) threadBean.getThreadAllocatedBytes(Thread.currentThread().getId) else 0L

  /** The registry codec pinned to `threads` threads. Threaded codecs are
    * never used with their constructor default: pFPC defaults to 8 threads
    * and its CR depends on its chunk count.
    */
  def pinned(codec: Codec, threads: Int): Codec = codec match {
    case t: ThreadedCodec => t.withThreads(threads)
    case c => c
  }

  /** Compress each block, decompress it and check the bits. An exception or
    * a bit mismatch fails the cell; it never aborts the pass.
    */
  def roundtrip(series: String, codec: Codec, units: Seq[FpBlock],
                tracer: Tracer, countAlloc: Boolean): CellResult = {
    val safe = Names.metricSafe(codec.name)
    val (compSpan, decompSpan) = (s"${codec.name}.compress", s"${codec.name}.decompress")
    var payload, compNs, decompNs, alloc = 0L
    var bad = 0
    val start = System.nanoTime()
    try {
      for (u <- units) {
        val a0 = allocated(countAlloc)
        val t0 = System.nanoTime()
        val c = tracer.span(compSpan, "codecs")(codec.compress(u))
        val t1 = System.nanoTime()
        val d = tracer.span(decompSpan, "codecs")(codec.decompress(c.bytes, u.precision, u.extent))
        val t2 = System.nanoTime()
        alloc += allocated(countAlloc) - a0
        compNs += t1 - t0
        decompNs += t2 - t1
        payload += c.bytes.length
        if (tracer.span("verify", "bench")(!java.util.Arrays.equals(d.block.bits, u.bits))) bad += 1
      }
      CellResult(series, safe, units.map(_.sizeBytes).sum, payload, compNs, decompNs,
                 System.nanoTime() - start, alloc,
                 if (bad == 0) None else Some(s"$bad of ${units.size} blocks decoded to other bits"))
    } catch {
      case NonFatal(e) => CellResult(series, safe, 0, 0, 0, 0, 0, 0, Some(CellResult.describe(e)))
    }
  }
}
