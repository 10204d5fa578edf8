package stream

// ParseQuery exposes /journal's parameter parsing to the external
// fuzz test, which checks every returned event against it.
var ParseQuery = parseQuery

// SetFollowBuffer sizes the subscriber ring behind follow streams
// until the returned restore runs, so a test can overwhelm a tail.
func SetFollowBuffer(n int) (restore func()) {
	old := followBuffer
	followBuffer = n
	return func() { followBuffer = old }
}
