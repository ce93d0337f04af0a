package models

import (
	"fmt"

	"bnff/internal/det"
	"bnff/internal/graph"
)

// Builder constructs a model graph at a mini-batch size.
type Builder func(batch int) (*graph.Graph, error)

// registry maps model names to builders. Full-size models evaluate
// analytically; tiny variants execute numerically.
var registry = map[string]Builder{
	"alexnet":         AlexNet,
	"vgg16":           VGG16,
	"resnet50":        ResNet50,
	"densenet121":     DenseNet121,
	"densenet169":     DenseNet169,
	"densenet201":     DenseNet201,
	"mobilenet":       MobileNetV1,
	"inception-small": InceptionSmall,
	"tiny-cnn":        func(b int) (*graph.Graph, error) { return TinyCNN(b, 8, 4) },
	"tiny-densenet":   TinyDenseNet,
	"tiny-resnet":     TinyResNet,
	"tiny-mobilenet":  TinyMobileNet,
	"tiny-inception":  TinyInception,
}

// Build constructs a model by name.
func Build(name string, batch int) (*graph.Graph, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown model %q (want one of %v)", name, Names())
	}
	return b(batch)
}

// Names lists the registered model names, sorted.
func Names() []string { return det.SortedKeys(registry) }
