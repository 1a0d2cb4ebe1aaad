// Fixture: closure events in a simulated dir. Expected findings:
//   line 9:  snap-closure-event (scheduleLambda)
//   line 14: snap-closure-event (LambdaEvent)
// A typed event (line 17) and a mention in a comment are fine:
// scheduleLambda is only matched as code.
void
sendLater(EventQueue &eq, Sequencer *dst)
{
    eq.scheduleLambda(eq.curTick() + 10, "later",
                      [dst] { dst->deliver(); });
}

struct Holder {
    LambdaEvent wake;
};

MemberEvent<Holder, &Holder::fire> typed;
