//===- substrates/swing/Swing.cpp - javax.swing analogue --------------------===//

#include "substrates/swing/Swing.h"

#include "runtime/Thread.h"
#include "substrates/Stagger.h"

#include <memory>

using namespace dlf;
using namespace dlf::swing;

// -- Caret --------------------------------------------------------------------

Caret::Caret(Label Site, const void *Owner) : Monitor("caret", Site, Owner) {
  DLF_NEW_OBJECT(this, Owner);
}

void Caret::setDot(int NewPosition) {
  DLF_SCOPE("Caret::setDot");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("DefaultCaret:1244/caret"));
  Position = NewPosition;
}

int Caret::dot() const {
  DLF_SCOPE("Caret::dot");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("DefaultCaret::getDot/caret"));
  return Position;
}

void Caret::moveDot(int Delta) {
  DLF_SCOPE("Caret::moveDot");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("DefaultCaret::moveDot/caret"));
  Position += Delta;
}

// -- TextArea -----------------------------------------------------------------

TextArea::TextArea(Label Site, Frame &Owner)
    : TheCaret(DLF_NAMED_SITE("JTextArea::createCaret"), this) {
  DLF_NEW_OBJECT(this, &Owner);
  (void)Site;
}

void TextArea::setCaretPosition(int Position) {
  DLF_SCOPE("TextArea::setCaretPosition");
  TheCaret.setDot(Position);
}

// -- Frame --------------------------------------------------------------------

Frame::Frame(Label Site) : Monitor("jframe", Site, nullptr) {
  DLF_NEW_OBJECT(this, nullptr);
}

int Frame::width() const {
  DLF_SCOPE("Frame::width");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("Frame::width/frame"));
  return Width;
}

void Frame::setTitleLength(int Length) {
  DLF_SCOPE("Frame::setTitleLength");
  MutexGuard Guard(Monitor, DLF_NAMED_SITE("Frame::setTitle/frame"));
  TitleLength = Length;
}

// -- RepaintManager -----------------------------------------------------------

void RepaintManager::paintDirtyRegions(Caret &TheCaret, Frame &TheFrame) {
  DLF_SCOPE("RepaintManager::paintDirtyRegions");
  MutexGuard CaretGuard(TheCaret.monitor(),
                        DLF_NAMED_SITE("DefaultCaret:1304/caret"));
  MutexGuard FrameGuard(TheFrame.monitor(),
                        DLF_NAMED_SITE("RepaintManager:407/frame"));
  // Paint: reads caret state into the frame's surface.
}

// -- Harness ------------------------------------------------------------------

namespace {

/// Event kinds the dispatch thread processes.
enum class EventKind { ReadCaret, MoveCaret, ReadFrame, Repaint, Quit };

/// A tiny event queue: single small lock, no nesting, so it contributes no
/// cycles of its own.
class EventQueue {
public:
  explicit EventQueue(Label Site) : Monitor("eventQueue", Site, nullptr) {}

  void post(EventKind Kind) {
    MutexGuard Guard(Monitor, DLF_NAMED_SITE("EventQueue::post/queue"));
    Events.push_back(Kind);
  }

  bool tryPop(EventKind &Out) {
    MutexGuard Guard(Monitor, DLF_NAMED_SITE("EventQueue::pop/queue"));
    if (Next >= Events.size())
      return false;
    Out = Events[Next++];
    return true;
  }

private:
  Mutex Monitor;
  std::vector<EventKind> Events;
  size_t Next = 0;
};

} // namespace

void swing::runSwingHarness() {
  DLF_SCOPE("swing::runSwingHarness");
  Frame TheFrame(DLF_SITE());
  TextArea Area(DLF_SITE(), TheFrame);
  RepaintManager Repainter;
  EventQueue Queue(DLF_SITE());

  // The event dispatch thread: processes events until Quit, touching the
  // caret and frame monitors at many distinct sites.
  Thread EventThread(
      [&] {
        DLF_SCOPE("swing::eventDispatchThread");
        for (;;) {
          EventKind Kind;
          if (!Queue.tryPop(Kind)) {
            yieldNow();
            continue;
          }
          switch (Kind) {
          case EventKind::ReadCaret:
            (void)Area.caret().dot();
            break;
          case EventKind::MoveCaret:
            Area.caret().moveDot(1);
            break;
          case EventKind::ReadFrame:
            (void)TheFrame.width();
            break;
          case EventKind::Repaint:
            Repainter.paintDirtyRegions(Area.caret(), TheFrame);
            break;
          case EventKind::Quit:
            return;
          }
        }
      },
      "swing.eventThread", DLF_SITE(), &TheFrame);

  // Benign traffic: many caret/frame touches at distinct sites, and several
  // un-nested setCaretPosition calls (the no-context variant pauses at each
  // of these, which is where Swing's thrashing explosion comes from).
  for (int I = 0; I != 4; ++I) {
    Queue.post(EventKind::ReadCaret);
    Queue.post(EventKind::MoveCaret);
    Queue.post(EventKind::ReadFrame);
    Area.setCaretPosition(I); // caret monitor, frame NOT held
    TheFrame.setTitleLength(I);
    stagger(1);
  }

  // The deadlocking interaction: a repaint event in flight while the main
  // thread holds the frame and calls into the caret. Outside the Active
  // scheduler, give the event thread real time to run the repaint first,
  // so the plain program stays deadlock-free under load.
  Queue.post(EventKind::Repaint);
  staggerWall(0, 5000);
  {
    DLF_SCOPE("swing::mainSyncBlock");
    MutexGuard FrameGuard(TheFrame.monitor(),
                          DLF_NAMED_SITE("app::syncFrame/frame"));
    Area.setCaretPosition(42);
  }

  for (int I = 0; I != 3; ++I) {
    Queue.post(EventKind::MoveCaret);
    Queue.post(EventKind::Repaint);
    stagger(1);
  }

  Queue.post(EventKind::Quit);
  EventThread.join();
}
