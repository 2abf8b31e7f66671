package shadow

// CaptureChannels records every channel Attach builds until stop runs.
// With bigFloat set, each one is forced onto the big.Float path, the
// reference the channel differential compares the fixed-width
// evaluator against.
func CaptureChannels(bigFloat bool) (chans *[]*Channel, stop func()) {
	chans = new([]*Channel)
	attachHook = func(ch *Channel) {
		if bigFloat {
			ch.fixed = false
		}
		*chans = append(*chans, ch)
	}
	return chans, func() { attachHook = nil }
}
