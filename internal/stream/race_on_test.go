//go:build race

package stream_test

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of what is put back: allocation bounds that rely on a pool do not hold.
const raceEnabled = true
