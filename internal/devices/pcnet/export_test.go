package pcnet

// PadFrame exports the backend's runt padding to the external tests.
var PadFrame = padFrame
