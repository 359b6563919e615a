package sim

// InboxOf returns an Inbox whose Words are ws, for test engines that keep
// their own per-vertex inbox slots.
func InboxOf(ws []Word) Inbox { return Inbox{buf: ws} }
