package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** One traced interval: a call into a layer, made from the benchmark's own
  * code. `parent` is the id of the enclosing span, or -1 at the top.
  */
final case class Span(id: Int, parent: Int, name: String, layer: String,
                      startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** Span recorder for the traced run. Spans are kept in memory and written
  * out once, when the run ends. Only the benchmark's main thread records
  * spans, so a plain stack gives each span its parent. When disabled,
  * [[span]] only evaluates its body.
  */
final class Tracer {
  private val spans = ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var nextId = 0
  var enabled: Boolean = false

  def span[A](name: String, layer: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId; nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val t0 = System.nanoTime()
      try body
      finally {
        spans += Span(id, parent, name, layer, t0, System.nanoTime())
        stack = stack.tail
      }
    }

  /** Number of spans recorded so far. */
  def size: Int = spans.size

  /** Spans recorded after `mark` (a previous [[size]]). */
  def since(mark: Int): Seq[Span] = spans.drop(mark).toSeq

  /** Self time per layer: each span's duration minus the time its direct
    * children cover. Children of one span never overlap (one thread).
    */
  def selfNsByLayer(ss: Seq[Span]): Map[String, Long] = {
    val childNs = ss.groupBy(_.parent).map { case (p, cs) => p -> cs.map(_.durNs).sum }
    ss.groupBy(_.layer).map { case (layer, xs) =>
      layer -> xs.map(s => s.durNs - childNs.getOrElse(s.id, 0L)).sum
    }
  }

  def write(file: java.io.File): Unit = {
    file.getParentFile.mkdirs()
    val w = new java.io.PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      w.println(Json.obj(Seq(
        "id" -> s.id.toString, "parent" -> s.parent.toString, "name" -> Json.str(s.name),
        "layer" -> Json.str(s.layer), "start_ns" -> s.startNs.toString, "end_ns" -> s.endNs.toString)))
    } finally w.close()
  }
}
