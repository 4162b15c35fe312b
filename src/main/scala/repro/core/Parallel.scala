package repro.core

import java.util.concurrent.{Callable, ConcurrentHashMap, Executors, ExecutorService, ThreadFactory}
import scala.jdk.CollectionConverters._

/** Fixed-width fork/join over independent work items.
  *
  * The parallel codecs (pFPC, bitshuffle, ndzip-CPU) compress blocks/chunks
  * independently; Tables 7/8 sweep the thread count, so the pool width is an
  * explicit argument rather than the common pool's. Pools are cached per
  * width (daemon threads): codecs compress MB-scale blocks in milliseconds,
  * so per-call pool construction would dominate the measurement.
  */
object Parallel {
  private val pools = new ConcurrentHashMap[Int, ExecutorService]()

  private def poolFor(threads: Int): ExecutorService =
    pools.computeIfAbsent(threads, t =>
      Executors.newFixedThreadPool(t, new ThreadFactory {
        def newThread(r: Runnable): Thread = {
          val th = new Thread(r, s"repro-parallel-$t")
          th.setDaemon(true)
          th
        }
      }))

  def map[A, B](items: IndexedSeq[A], threads: Int)(f: A => B): IndexedSeq[B] = {
    require(threads >= 1, s"bad thread count: $threads")
    if (threads == 1 || items.size <= 1) return items.map(f)
    val tasks = items.map(a => new Callable[B] { def call(): B = f(a) })
    poolFor(threads).invokeAll(tasks.asJava).asScala.map(_.get()).toIndexedSeq
  }
}

/** Codecs whose thread count is sweepable (Table 7/8). */
trait ThreadedCodec extends Codec {
  def threads: Int
  def withThreads(t: Int): Codec
}
