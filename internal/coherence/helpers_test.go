package coherence

import "chats/internal/mem"

// Test-only views and entry points of the directory. The machine sends
// Unblock over the network (SendUnblock) and reads no line state.

// RespFunc adapts a plain function to RespHandler.
type RespFunc func(Resp)

// HandleResp invokes the function.
func (f RespFunc) HandleResp(r Resp) { f(r) }

// Unblock releases line at once, as the delivery of SendUnblock's
// message does, and starts the next queued request for it.
func (d *Directory) Unblock(line mem.Addr) {
	d.unblock(line, d.line(line))
}

// Busy reports whether the line has a request in flight.
func (d *Directory) Busy(lineAddr mem.Addr) bool {
	return d.line(lineAddr).busy
}

// QueuedLen reports how many requests wait in the line's blocking queue.
func (d *Directory) QueuedLen(lineAddr mem.Addr) int {
	return d.line(lineAddr).queue.n
}
