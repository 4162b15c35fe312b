package repro

import org.scalacheck.{Prop, Test => SCTest}
import org.scalacheck.util.Pretty

/** Minimal ScalaCheck runner (the scalatestplus bridge is not in the offline
  * cache). `checkProp` runs a property and fails the scalatest test with the
  * ScalaCheck result on falsification.
  */
trait PropSupport { self: org.scalatest.Assertions =>
  def checkProp(prop: Prop, minTests: Int = 50): Unit = {
    val result = SCTest.check(
      SCTest.Parameters.default.withMinSuccessfulTests(minTests), prop)
    assert(result.passed, Pretty.pretty(result))
  }

  /** `f` on a new thread, whose per-thread scratch starts empty; what `f`
    * throws is rethrown here.
    */
  def onFreshThread[A](f: => A): A = {
    var out: Either[Throwable, A] = null
    val t = new Thread(() => out = try Right(f) catch { case e: Throwable => Left(e) })
    t.start()
    t.join()
    out.fold(throw _, identity)
  }
}
