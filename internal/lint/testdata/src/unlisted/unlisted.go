// Package unlisted is a goroutinelife fixture whose path names no
// concurrent package: the analyzer checks every package alike.
package unlisted

func fireAndForget() {
	go func() { // want `leak-shaped spawn`
	}()
}
